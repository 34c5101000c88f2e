package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.local.LocalBipartite
import LocalBipartite.{gidL, gidU}

/** Equivalence of the three retrieval algorithms (Q_o = Q_v = Q_opt = oracle)
  * and DuckDB audits of the returned community's degree constraints.
  */
class CommunitySearchSpec extends SparkSpec {
  import TestGraphs._

  private lazy val fig2Df = toDF(spark, fig2)
  private lazy val fig2Local = LocalBipartite(fig2)
  private lazy val iDelta = DeltaIndex.build(fig2Df)
  private lazy val iV = BicoreIndex.build(fig2Df)

  test("Q_o equals the oracle community") {
    for ((a, b) <- Seq((1, 1), (2, 2), (3, 3), (2, 1)); q <- Seq(gidU(3), gidL(2))) {
      val got = edgeSet(CommunitySearch.online(fig2Df, q, a, b))
      assert(got == fig2Local.community(q, a, b).edges.toSet, s"q=$q ($a,$b)")
    }
  }

  test("Q_o = Q_v = Q_opt on fig2 across parameters") {
    for ((a, b) <- Seq((1, 2), (2, 2), (2, 3), (3, 3), (3, 2)); q <- Seq(gidU(1), gidU(3))) {
      val qo = edgeSet(CommunitySearch.online(fig2Df, q, a, b))
      val qv = edgeSet(CommunitySearch.viaBicore(fig2Df, iV, q, a, b))
      val qopt = edgeSet(CommunitySearch.viaDelta(iDelta, q, a, b))
      assert(qo == qv, s"Qo!=Qv q=$q ($a,$b)")
      assert(qo == qopt, s"Qo!=Qopt q=$q ($a,$b)")
    }
  }

  test("all three algorithms agree on a random graph") {
    // A 24-vertex ring (a (2,2)-core, eccentricity 12) with the path
    // pathOf(6) hanging off v1: at (1,1) q = u107 is 25 hops from the far
    // side of the ring; at (2,2) the path is peeled away. Graph 16 is the
    // same with every id negated.
    val ring = (1L to 12L).flatMap(i => Seq((i, i, 1.0 + i % 3), (i % 12 + 1, i, 2.0))).toVector
    val tail = pathOf(6).map { case (u, v, w) => (u + 100, v + 100, w) } :+ ((101L, 1L, 1.0))
    val graphs = (1 to 14).map { seed =>
      seed -> (seed % 3 match {
        case 0 => random(9, 9, 0.22, seed) // sparse: G and its cores fall apart
        case 1 => random(7, 6, 0.5, seed)
        // Two dense blocks joined by the path v1-u9-v9-u5, which no core with
        // alpha or beta >= 3 keeps.
        case _ => random(4, 4, 0.75, seed) ++
            random(4, 4, 0.75, seed + 100).map { case (u, v, w) => (u + 4, v + 4, w) } ++
            Vector((9L, 1L, 1.0), (9L, 9L, 1.0), (5L, 9L, 1.0))
      })
    } ++ Seq(15 -> (ring ++ tail), 16 -> negated(ring ++ tail))
    val params = Seq((2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (1, 1), (3, 3))
    var (splitCores, outside) = (0, 0)
    for ((seed, edges) <- graphs) {
      val df = toDF(spark, edges)
      val idxD = DeltaIndex.build(df)
      val idxV = BicoreIndex.fromDelta(idxD)
      val g = LocalBipartite(edges)
      val cases =
        if (seed >= 15) {
          val sign = if (seed == 15) 1 else -1
          Seq((gidU(sign * 107), 1, 1), (gidL(sign * 7), 2, 2), (gidU(sign * 107), 2, 2),
            (gidU(sign * 999), 1, 1))
        } else {
          val (a, b) = params(seed % params.size)
          val core = g.core(a, b)
          if (core.components.values.toSet.size > 1) splitCores += 1
          val out = (g.vertices -- core.vertices).toSeq.sorted.take(1)
          (core.upperVertices.toSeq.sorted.take(1) ++ core.lowerVertices.toSeq.sorted.takeRight(1) ++
            out).map(q => (q, a, b))
        }
      for ((q, a, b) <- cases) {
        val exp = g.community(q, a, b).edges.toSet
        if (exp.isEmpty) outside += 1
        assert(edgeSet(CommunitySearch.online(df, q, a, b)) == exp, s"seed=$seed Qo q=$q ($a,$b)")
        assert(edgeSet(CommunitySearch.viaBicore(df, idxV, q, a, b)) == exp, s"seed=$seed Qv q=$q ($a,$b)")
        assert(edgeSet(CommunitySearch.viaDelta(idxD, q, a, b)) == exp, s"seed=$seed Qopt q=$q ($a,$b)")
      }
    }
    assert(splitCores > 0, "no query ran on a core with several components")
    assert(outside > 0, "no query started outside the core")
  }

  test("alpha or beta below 1 is rejected at every query entry point") {
    val basic = BasicIndexes.build(fig2Df, isAlpha = true, cap0 = 1)
    val entryPoints: Seq[(String, (Int, Int) => Any)] = Seq(
      "Q_o" -> ((a, b) => CommunitySearch.online(fig2Df, gidU(3), a, b)),
      "Q_v" -> ((a, b) => BicoreIndex.query(fig2Df, iV, gidU(3), a, b)),
      "Q_opt" -> ((a, b) => DeltaIndex.query(iDelta, gidU(3), a, b)),
      "I_bs" -> ((a, b) => BasicIndexes.query(basic, gidU(3), a, b)),
      "SCS-Peel" -> ((a, b) => Scs.peel(fig2Df, gidU(3), a, b)),
      "SCS-Expand" -> ((a, b) => Scs.expand(fig2Df, gidU(3), a, b)),
      "SCS-Baseline" -> ((a, b) => Scs.baseline(fig2Df, gidU(3), a, b)))
    for ((name, run) <- entryPoints; (a, b) <- Seq((0, 2), (2, 0), (0, 0), (-1, 1))) {
      val e = intercept[IllegalArgumentException](run(a, b))
      assert(e.getMessage.contains(s"alpha=$a, beta=$b"), s"$name ($a,$b)")
    }
    // (1,1) is accepted everywhere: u3 is in fig2's (1,1)-community.
    assert(edgeSet(DeltaIndex.query(iDelta, gidU(3), 1, 1)) == fig2.toSet)
  }

  test("a duplicate edge is rejected by the index build, Q_o and SCS-Peel") {
    // K_{1,2} with (u1, v1) listed twice: counted twice, u1 would reach degree 3.
    val df = toDF(spark, Vector((1L, 1L, 1.0), (1L, 2L, 2.0), (1L, 1L, 1.0)))
    val runs: Seq[(String, () => Any)] = Seq(
      "DeltaIndex.build" -> (() => DeltaIndex.build(df)),
      "Q_o" -> (() => CommunitySearch.online(df, gidU(1), 3, 1)),
      "SCS-Peel" -> (() => Scs.peel(df, gidU(1), 3, 1)))
    for ((name, run) <- runs)
      assert(rejection(run()).getMessage.contains("duplicate edge (u=1, v=1)"), name)
  }

  test("two-block graph: community stays within q's component") {
    val cut = twoBlocks.filter(_._3 != 1.0)
    val df = toDF(spark, cut)
    val idx = DeltaIndex.build(df)
    val got = edgeSet(DeltaIndex.query(idx, gidU(1), 2, 2))
    assert(got == Set((1L, 1L, 4.0), (1L, 2L, 4.0), (2L, 1L, 4.0), (2L, 2L, 3.0)))
    val got2 = edgeSet(DeltaIndex.query(idx, gidU(3), 2, 2))
    assert(got2 == cut.filter(e => e._1 >= 3).toSet)
  }

  test("returned community satisfies the degree constraints (DuckDB audit)") {
    val c = CommunitySearch.viaDelta(iDelta, gidU(3), 2, 2)
    // violations must be empty on both engines
    val sparkViolations = repro.graph.Bipartite
      .degreesU(c).filter(col("deg") < 2).select(col("u").as("x"))
      .unionByName(
        repro.graph.Bipartite.degreesL(c).filter(col("deg") < 2).select(col("v").as("x")))
    Oracle.assertEquivalent(
      sparkViolations,
      """SELECT CAST(u AS BIGINT) AS x FROM c GROUP BY u HAVING count(*) < 2
         UNION ALL
         SELECT CAST(v AS BIGINT) AS x FROM c GROUP BY v HAVING count(*) < 2""",
      "c" -> c)
    assert(sparkViolations.isEmpty)
  }
}
