package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.local.LocalBipartite
import LocalBipartite.{gidL, gidU}

/** I_bs^alpha / I_bs^beta (Algorithm 1), the bicore index I_v, and the exact
  * analytic full-index size formulas (DuckDB-cross-checked).
  */
class BasicBicoreIndexSpec extends SparkSpec {
  import TestGraphs._

  private lazy val fig2Df = toDF(spark, fig2)
  private lazy val fig2Local = LocalBipartite(fig2)

  /** The other fixtures and five random graphs, two sparse and three with
    * two dense blocks joined by a path that no core with alpha or beta >= 3
    * keeps, so their cores split into several components.
    */
  private lazy val queryGraphs: Seq[(String, Vector[(Long, Long, Double)])] =
    Seq("k33Pendant" -> k33Pendant, "twoBlocks" -> twoBlocks, "path" -> path, "star" -> star) ++
      Seq(1, 4).map(seed => s"sparse$seed" -> random(9, 9, 0.22, seed)) ++
      Seq(2, 5, 8).map(seed => s"blocks$seed" -> (random(4, 4, 0.75, seed) ++
        random(4, 4, 0.75, seed + 100).map { case (u, v, w) => (u + 4, v + 4, w) } ++
        Vector((9L, 1L, 1.0), (9L, 9L, 1.0), (5L, 9L, 1.0))))

  /** I_bs queries on [[queryGraphs]] at one alpha < beta and one alpha > beta
    * pair per graph, from a core vertex (on alternating layers) and from a
    * vertex outside the core, against the oracle community.
    */
  private def checkQueryGraphs(isAlpha: Boolean): Unit = {
    val params = Seq((1, 2), (3, 1), (2, 3), (2, 1), (1, 3), (3, 2))
    var splitCores = 0
    for (((name, edges), i) <- queryGraphs.zipWithIndex) {
      val idx = BasicIndexes.build(toDF(spark, edges), isAlpha)
      val g = LocalBipartite(edges)
      for ((a, b) <- Seq(params(2 * i % 6), params((2 * i + 1) % 6))) {
        val core = g.core(a, b)
        if (core.components.values.toSet.size > 1) splitCores += 1
        val inside = if (i % 2 == 0) core.upperVertices else core.lowerVertices
        for (q <- inside.toSeq.sorted.take(1) ++ (g.vertices -- core.vertices).toSeq.sorted.take(1)) {
          val got = edgeSet(BasicIndexes.query(idx, q, a, b))
          assert(got == g.community(q, a, b).edges.toSet, s"$name q=$q (a,b)=($a,$b)")
        }
      }
    }
    assert(splitCores > 0, "no query ran on a core with several components")
  }

  /** A q outside the (a,b)-core that has entries in the slice the query
    * reads, as its own offset at tau is at least 1 but below the bound:
    * the query is empty, as the oracle's community.
    */
  private def checkOutsideWithEntries(idx: BasicIndex, q: Long, a: Int, b: Int): Unit = {
    val (tau, bound) = if (idx.isAlpha) (a, b) else (b, a)
    assert(idx.entries.filter(col("tau") === tau && col("off") >= bound && col("src") === q).count() > 0)
    assert(fig2Local.community(q, a, b).isEmpty)
    assert(BasicIndexes.query(idx, q, a, b).isEmpty, s"q=$q (a,b)=($a,$b)")
  }

  test("I_bs^alpha query equals the community for alpha within cap") {
    val idx = BasicIndexes.build(fig2Df, isAlpha = true, cap0 = 4)
    for ((a, b) <- Seq((1, 1), (2, 2), (2, 3), (3, 3), (4, 1))) {
      val got = edgeSet(BasicIndexes.query(idx, gidU(3), a, b))
      val exp = fig2Local.community(gidU(3), a, b).edges.toSet
      assert(got == exp, s"(a,b)=($a,$b)")
    }
    checkOutsideWithEntries(idx, gidL(3), 2, 4)
    checkQueryGraphs(isAlpha = true)
  }

  test("I_bs^beta query equals the community for beta within cap") {
    val idx = BasicIndexes.build(fig2Df, isAlpha = false, cap0 = 4)
    for ((a, b) <- Seq((1, 1), (2, 2), (3, 2), (1, 4))) {
      val got = edgeSet(BasicIndexes.query(idx, gidU(1), a, b))
      val exp = fig2Local.community(gidU(1), a, b).edges.toSet
      assert(got == exp, s"(a,b)=($a,$b)")
    }
    checkOutsideWithEntries(idx, gidU(4), 3, 2)
    checkQueryGraphs(isAlpha = false)
  }

  test("basic index entries for tau=alpha store the (alpha,1)-core adjacency") {
    val idx = BasicIndexes.build(fig2Df, isAlpha = true, cap0 = 2)
    val off = fig2Local.alphaOffsets(2)
    val expected = (for {
      (u, v, _) <- fig2
      pair <- Seq((gidU(u), gidL(v)), (gidL(v), gidU(u)))
      if off.getOrElse(pair._1, 0) >= 1 && off.getOrElse(pair._2, 0) >= 1
    } yield (pair._1, pair._2, off(pair._2))).toSet
    val got = idx.entries.filter(col("tau") === 2)
      .select("src", "dst", "off")
      .collect().map(r => (r.getLong(0), r.getLong(1), r.getInt(2))).toSet
    assert(got == expected)
  }

  test("bicore index I_v query (Q_v) equals the community on both branches") {
    val idx = BicoreIndex.build(fig2Df)
    assert(idx.cap == 3)
    for ((a, b) <- Seq((1, 2), (2, 2), (3, 3), (2, 1), (3, 1));
         q <- Seq(gidU(3), gidL(1))) {
      val got = edgeSet(BicoreIndex.query(fig2Df, idx, q, a, b))
      val exp = fig2Local.community(q, a, b).edges.toSet
      assert(got == exp, s"q=$q (a,b)=($a,$b)")
    }
  }

  test("Q_v empty cases") {
    val idx = BicoreIndex.build(fig2Df)
    assert(BicoreIndex.query(fig2Df, idx, gidU(5), 2, 2).isEmpty)
    assert(BicoreIndex.query(fig2Df, idx, gidU(1), 4, 5).isEmpty)
    // outside the core, with offsets at tau of at least tau
    assert(BicoreIndex.query(fig2Df, idx, gidL(3), 2, 4).isEmpty)
    assert(BicoreIndex.query(fig2Df, idx, gidU(4), 3, 2).isEmpty)
  }

  test("analytic I_bs full sizes equal DuckDB sums of squared degrees") {
    import spark.implicits._
    val a = IndexSizes.basicAlphaFullEntries(fig2Df)
    val b = IndexSizes.basicBetaFullEntries(fig2Df)
    Oracle.assertEquivalent(
      Seq((a, b)).toDF("ia", "ib"),
      """SELECT (SELECT 2*sum(d*d) FROM (SELECT count(*) AS d FROM e GROUP BY u)) AS ia,
                (SELECT 2*sum(d*d) FROM (SELECT count(*) AS d FROM e GROUP BY v)) AS ib""",
      "e" -> fig2Df)
  }

  test("analytic I_v full size equals the DuckDB formulation") {
    import spark.implicits._
    val s = IndexSizes.bicoreFullEntries(fig2Df)
    Oracle.assertEquivalent(
      Seq(s).toDF("s"),
      """WITH du AS (SELECT u, count(*) AS d FROM e GROUP BY u),
              dv AS (SELECT v, count(*) AS d FROM e GROUP BY v)
         SELECT (SELECT sum(d) FROM du)
              + (SELECT sum(m) FROM (SELECT e.v, max(du.d) AS m FROM e JOIN du ON e.u = du.u GROUP BY e.v))
              + (SELECT sum(d) FROM dv)
              + (SELECT sum(m) FROM (SELECT e.u, max(dv.d) AS m FROM e JOIN dv ON e.v = dv.v GROUP BY e.u))
              AS s""",
      "e" -> fig2Df)
  }

  test("materialized basic-alpha slice matches the analytic per-tau count") {
    // per derivation: entries at tau = #edges with deg(u) >= tau, doubled
    val idx = BasicIndexes.build(fig2Df, isAlpha = true, cap0 = 3)
    val degU = fig2.groupBy(_._1).map { case (u, es) => u -> es.size }
    for (tau <- 1 to 3) {
      val exp = 2L * fig2.count { case (u, _, _) => degU(u) >= tau }
      val got = idx.entries.filter(col("tau") === tau).count()
      assert(got == exp, s"tau=$tau")
    }
  }

  test("I_delta is never larger than the full basic indexes on hub-heavy graphs") {
    // star-heavy fig2: I_bs^alpha full has Theta(sum deg^2) entries
    val full = IndexSizes.basicAlphaFullEntries(fig2Df) + IndexSizes.basicBetaFullEntries(fig2Df)
    val idelta = DeltaIndex.build(fig2Df).entryCount
    assert(idelta < full, s"idelta=$idelta full=$full")
  }
}
