package repro.graph

import org.apache.spark.JobCounter
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.local.LocalBipartite

/** Spark peeling vs the sequential oracle, plus DuckDB checks of the
  * SQL-expressible pieces (degrees, alpha_max/beta_max inputs).
  */
class PeelSpec extends SparkSpec {
  import TestGraphs._

  private def check(edges: Vector[(Long, Long, Double)], a: Int, b: Int): Unit = {
    val df = toDF(spark, edges)
    val got = edgeSet(Peel.core(df, a, b))
    val exp = LocalBipartite(edges).core(a, b).edges.toSet
    assert(got == exp, s"core($a,$b)")
  }

  test("fig2 cores match local oracle across the parameter grid") {
    for ((a, b) <- paramGrid(4, 4)) check(fig2, a, b)
  }

  test("k33+pendant cores") {
    check(k33Pendant, 1, 1); check(k33Pendant, 2, 2); check(k33Pendant, 3, 3)
    check(k33Pendant, 4, 4) // empty
  }

  test("path cascade") {
    check(path, 2, 1); check(path, 2, 2); check(path, 1, 2)
  }

  test("random graphs") {
    for (seed <- 1 to 3; (a, b) <- Seq((2, 2), (3, 2), (2, 3))) {
      check(random(7, 7, 0.4, seed), a, b)
    }
  }

  test("degrees agree with DuckDB") {
    val df = toDF(spark, fig2)
    Oracle.assertEquivalent(
      Bipartite.degreesU(df),
      "SELECT u, CAST(count(*) AS INT) AS deg FROM edges GROUP BY u",
      "edges" -> df)
    Oracle.assertEquivalent(
      Bipartite.degreesL(df),
      "SELECT v, CAST(count(*) AS INT) AS deg FROM edges GROUP BY v",
      "edges" -> df)
  }

  test("alphaMax/betaMax equal max layer degree (DuckDB-checked)") {
    val df = toDF(spark, fig2)
    assert(Bipartite.alphaMax(df) == 4)
    assert(Bipartite.betaMax(df) == 20)
    import spark.implicits._
    Oracle.assertEquivalent(
      Seq((Bipartite.alphaMax(df), Bipartite.betaMax(df))).toDF("amax", "bmax"),
      "SELECT CAST(max(du) AS INT) AS amax, CAST(max(dv) AS INT) AS bmax FROM " +
        "(SELECT count(*) AS du FROM edges GROUP BY u), " +
        "(SELECT count(*) AS dv FROM edges GROUP BY v)",
      "edges" -> df)
  }

  test("stats counts vertices and edges") {
    val st = Bipartite.stats(toDF(spark, fig2))
    assert(st == Bipartite.Stats(20, 4, fig2.size))
  }

  test("core on a cascade-heavy path runs at most half the count-compare loop's jobs") {
    // pathOf(8) at (2,2) peels to nothing, one vertex from each end per
    // half-step. The count-compare loop with a checkpoint and a count per
    // round ran 63 jobs here, and the SQL fixpoint with two jobs per
    // half-step 24; with one job per half-step it runs 12.
    val (core, jobs) = JobCounter.jobsIn(spark.sparkContext)(Peel.core(toDF(spark, pathOf(8)), 2, 2))
    assert(core.isEmpty)
    assert(jobs <= 12, s"$jobs jobs")
  }

  test("empty input yields empty core") {
    val df = toDF(spark, fig2).limit(0)
    assert(Peel.core(df, 1, 1).isEmpty)
  }
}
