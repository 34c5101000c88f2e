package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block of code starts. Listener events arrive
  * asynchronously, so the count is exact only once the bus has delivered
  * every event posted before and inside the block; `waitUntilEmpty` is
  * package-private to Spark, hence this package.
  */
object JobCounter {
  def jobsIn[A](sc: SparkContext)(body: => A): (A, Int) = {
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val a = body
      sc.listenerBus.waitUntilEmpty()
      (a, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
