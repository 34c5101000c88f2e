package repro.perfbench

import org.apache.spark.sql.SparkSession

/** Checks that a seed's workload does not depend on Spark: the edges handed
  * to the program read back identically at two partition counts, and the
  * printed fingerprint (compared across core counts by run.py) is a pure
  * function of the seed.
  */
object SelfTest {
  def run(o: Main.Opts): Unit = {
    val spark: SparkSession = Main.session(o.copy(workload = "selftest"))
    try {
      Workloads.names.foreach { name =>
        val wl = Workloads.instance(name, o.seed)
        val expected = wl.inst.edges.toSet
        Seq(1, 7).foreach { parts =>
          val got = Main.collect(Main.load(spark, wl.inst.edges, parts))
          require(got == expected, s"$name: edges differ at $parts partitions")
        }
        println(s"fingerprint $name seed=${o.seed} ${wl.fingerprint.toHexString}")
      }
    } finally spark.stop()
  }
}
