package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Listener events arrive asynchronously; a span's counters are exact only
  * once the bus has delivered every event posted before the span ended.
  * `waitUntilEmpty` is package-private to Spark, hence this package.
  */
object Bus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
