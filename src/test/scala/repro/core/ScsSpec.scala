package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.JobCounter
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.graph.Bipartite
import repro.local.{LocalBipartite, LocalScs}
import LocalBipartite.{gidL, gidU}

/** SCS-Peel / SCS-Expand / SCS-Baseline vs the sequential semantic oracle,
  * structural audits of the result, and the driver-size limit.
  */
class ScsSpec extends SparkSpec {
  import TestGraphs._

  private lazy val fig2Df = toDF(spark, fig2)
  private lazy val fig2Idx = DeltaIndex.build(fig2Df)

  private def run(edges: Vector[(Long, Long, Double)], idx: DeltaIndex, qGid: Long,
                  a: Int, b: Int): Seq[(String, Option[Set[(Long, Long, Double)]])] = {
    val df = toDF(spark, edges)
    val community = DeltaIndex.query(idx, qGid, a, b)
    Seq(
      "peel" -> Scs.peel(community, qGid, a, b).map(edgeSet),
      "expand" -> Scs.expand(community, qGid, a, b).map(edgeSet),
      "baseline" -> Scs.baseline(df, qGid, a, b).map(edgeSet),
    )
  }

  test("fig2: the significant (2,2)-community of u3 is the paper's example block") {
    val results = run(fig2, fig2Idx, gidU(3), 2, 2)
    results.foreach { case (name, res) =>
      assert(res.contains(fig2ScU3), s"$name returned $res")
    }
  }

  test("fig2: all algorithms match the oracle on more parameters") {
    val g = LocalBipartite(fig2)
    for ((q, a, b) <- Seq((gidU(1), 2, 2), (gidL(1), 2, 2), (gidU(2), 3, 3), (gidU(1), 2, 1))) {
      val exp = LocalScs.semantic(g, q, a, b).map(_.edges.toSet)
      run(fig2, fig2Idx, q, a, b).foreach { case (name, res) =>
        assert(res == exp, s"$name q=$q ($a,$b): $res vs $exp")
      }
    }
  }

  test("q outside the core: every algorithm returns None") {
    run(fig2, fig2Idx, gidU(5), 2, 2).foreach { case (name, res) =>
      assert(res.isEmpty, s"$name returned $res")
    }
  }

  test("all-equal weights: peel returns the community immediately") {
    val eq = k33Pendant.map { case (u, v, _) => (u, v, 3.0) }
    val df = toDF(spark, eq)
    val idx = DeltaIndex.build(df)
    val community = DeltaIndex.query(idx, gidU(1), 2, 2)
    val r = Scs.peel(community, gidU(1), 2, 2)
    assert(r.map(edgeSet).contains(LocalBipartite(eq).core(2, 2).edges.toSet))
  }

  test("two-block graph: SC of u1 lives in the high-weight block") {
    val df = toDF(spark, twoBlocks)
    val idx = DeltaIndex.build(df)
    val exp = Set((1L, 1L, 4.0), (1L, 2L, 4.0), (2L, 1L, 4.0), (2L, 2L, 3.0))
    run(twoBlocks, idx, gidU(1), 2, 2).foreach { case (name, res) =>
      assert(res.contains(exp), s"$name returned $res")
    }
  }

  test("random graphs: Spark algorithms match the sequential oracle") {
    val params = Seq((2, 2), (2, 3), (3, 2), (1, 3), (3, 1))
    val graphs = (1 to 25).map { seed =>
      // Two or three weight levels force ties. Every third graph is two dense
      // blocks joined by the path v1-u9-v9-u5, which no core with alpha or
      // beta >= 3 keeps: the core falls apart into several components.
      val maxW = 2 + seed % 2
      val edges =
        if (seed % 3 != 0) random(7, 6, 0.55, seed, maxW)
        else random(4, 4, 0.75, seed, maxW) ++
          random(4, 4, 0.75, seed + 100, maxW).map { case (u, v, w) => (u + 4, v + 4, w) } ++
          Vector((9L, 1L, 1.0), (9L, 9L, 1.0), (5L, 9L, 1.0))
      (s"seed=$seed", edges,
        Seq(gidU(1 + seed % 7), gidL(1 + seed % 6)).zip(Seq(params(seed % 5), params((seed + 2) % 5))))
    } :+ {
      // Negative ids: gidL(-3) = -5 is v-3, in the other block from v-2 (-5 / 2).
      ("negated", negated(twoBlocks.filter(_._3 != 1.0)), Seq(gidL(-3) -> (2, 2), gidU(-1) -> (2, 2)))
    }
    var splitCores = 0
    for ((label, edges, cases) <- graphs) {
      val g = LocalBipartite(edges)
      val df = toDF(spark, edges)
      for ((q, (a, b)) <- cases) {
        val exp = LocalScs.semantic(g, q, a, b).map(_.edges.toSet)
        val core = g.core(a, b)
        if (exp.nonEmpty && core.components.values.toSet.size > 1) splitCores += 1
        val community = toDF(spark, core.componentOf(q).edges)
        Seq(
          "peel" -> Scs.peel(community, q, a, b),
          "expand" -> Scs.expand(community, q, a, b),
          "baseline" -> Scs.baseline(df, q, a, b),
          "peel(G)" -> Scs.peel(df, q, a, b),
        ).foreach { case (name, res) =>
          assert(res.map(edgeSet) == exp, s"$label $name q=$q ($a,$b)")
        }
      }
    }
    assert(splitCores > 0, "no query ran on a core with several components")
  }

  test("peel accepts any edge set: the whole graph gives the semantic answer") {
    val allTwo = k33Pendant.map { case (u, v, _) => (u, v, 2.0) }
    val cut = twoBlocks.filter(_._3 != 1.0)
    for ((edges, q, a, b) <- Seq(
           (allTwo, gidU(1), 2, 2), // all weights equal: the pendant must still go
           (cut, gidU(3), 2, 2), // q dies in the first round: only its component
           (fig2, gidU(3), 2, 2), (fig2, gidU(1), 2, 2), (fig2, gidL(3), 2, 2),
           (fig2, gidU(2), 3, 3), (fig2, gidU(5), 1, 1))) {
      val exp = LocalScs.semantic(LocalBipartite(edges), q, a, b).map(_.edges.toSet)
      assert(Scs.peel(toDF(spark, edges), q, a, b).map(edgeSet) == exp, s"q=$q ($a,$b)")
    }
  }

  test("peel and expand read DeltaIndex.query's community without a Spark job") {
    val community = DeltaIndex.query(fig2Idx, gidU(3), 2, 2)
    val sc = spark.sparkContext
    val (peel, peelJobs) = JobCounter.jobsIn(sc)(Scs.peel(community, gidU(3), 2, 2).map(edgeSet))
    val (expand, expandJobs) = JobCounter.jobsIn(sc)(Scs.expand(community, gidU(3), 2, 2).map(edgeSet))
    assert(peel.contains(fig2ScU3) && expand.contains(fig2ScU3))
    assert((peelJobs, expandJobs) == ((0, 0)), "(peel, expand) jobs")
  }

  test("driver edge limit is positive, monotone in the heap and fits in an Int") {
    val heaps = Seq(Long.MinValue, -1L, 0L, 1L, 1L << 10, 1L << 20, 3L << 30, 1L << 40,
      1L << 50, Long.MaxValue)
    val caps = heaps.map(Bipartite.maxDriverEdges)
    assert(caps.forall(_ > 0))
    assert(caps.zip(caps.tail).forall { case (a, b) => a <= b })
    assert(caps.forall(c => 2L * c + 1 <= Int.MaxValue)) // cap + 1 rows, 2·cap adjacency slots
    assert(Bipartite.maxDriverEdges(3L << 30) >= 1000000)
  }

  test("an input above the driver limit is rejected before it is collected") {
    val df = toDF(spark, fig2)
    val heap = 10L * 1024
    val cap = Bipartite.maxDriverEdges(heap)
    assert(cap < fig2.size)
    val e = intercept[IllegalArgumentException](Scs.collectCapped(df, heap))
    assert(e.getMessage.contains(s"${fig2.size} edges") && e.getMessage.contains(s"$cap edges"))
    assert(Scs.collectCapped(df, 1L << 30).length == fig2.size)
  }

  test("NaN weights are rejected by peel, expand and baseline") {
    // The oracle drops NaN edges (no weight is >= NaN), while the engine would
    // sort NaN as the highest level: the engine rejects them instead.
    val k22 = for (u <- 1L to 2L; v <- 1L to 2L) yield (u, v, 1.0)
    for (edges <- Seq(k22.map(_.copy(_3 = Double.NaN)), k22.updated(0, (1L, 1L, Double.NaN)))) {
      val df = toDF(spark, edges)
      Seq[DataFrame => Option[DataFrame]](Scs.peel(_, gidU(1), 2, 2), Scs.expand(_, gidU(1), 2, 2),
        Scs.baseline(_, gidU(1), 2, 2)).foreach(alg => intercept[IllegalArgumentException](alg(df)))
    }
  }

  test("result audit: connectivity, degrees and min-weight maximality (DuckDB)") {
    val community = DeltaIndex.query(fig2Idx, gidU(3), 2, 2)
    val r = Scs.peel(community, gidU(3), 2, 2).get
    // degree constraints audit in DuckDB: zero violations
    val viol = repro.graph.Bipartite.degreesU(r).filter(col("deg") < 2)
      .select(col("u").as("x"))
      .unionByName(repro.graph.Bipartite.degreesL(r).filter(col("deg") < 2)
        .select(col("v").as("x")))
    Oracle.assertEquivalent(
      viol,
      """SELECT CAST(u AS BIGINT) AS x FROM r GROUP BY u HAVING count(*) < 2
         UNION ALL
         SELECT CAST(v AS BIGINT) AS x FROM r GROUP BY v HAVING count(*) < 2""",
      "r" -> r)
    // significance: the min weight in R matches DuckDB's
    Oracle.assertEquivalent(
      r.agg(min(col("w")).as("f")),
      "SELECT min(CAST(w AS DOUBLE)) AS f FROM r",
      "r" -> r)
    // R is connected and contains q
    val comp = repro.graph.ConnectedComponents.labels(r)
      .select("comp").distinct().count()
    assert(comp == 1)
    assert(containsGid(r, gidU(3)))
  }

  test("expansion with epsilon=1 agrees (checks every component change)") {
    val df = toDF(spark, twoBlocks)
    val idx = DeltaIndex.build(df)
    val community = DeltaIndex.query(idx, gidU(1), 2, 2)
    val r = Scs.expand(community, gidU(1), 2, 2, epsilon = 1.0)
    assert(r.map(edgeSet).contains(
      Set((1L, 1L, 4.0), (1L, 2L, 4.0), (2L, 1L, 4.0), (2L, 2L, 3.0))))
  }

  test("baseline on a disconnected graph never crosses components") {
    val cut = twoBlocks.filter(_._3 != 1.0)
    val df = toDF(spark, cut)
    val r = Scs.baseline(df, gidU(4), 2, 2)
    assert(r.map(edgeSet).contains(cut.filter(_._1 >= 3).toSet))
  }
}
