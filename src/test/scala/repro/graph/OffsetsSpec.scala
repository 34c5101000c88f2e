package repro.graph

import repro.{SparkSpec, TestGraphs}
import repro.local.LocalBipartite

/** The distributed h-index offset fixpoints vs the definitional sequential
  * oracle — the central correctness check for everything index-related.
  */
class OffsetsSpec extends SparkSpec {
  import TestGraphs._

  private def offsetsMap(df: org.apache.spark.sql.DataFrame): Map[Long, Int] =
    df.collect().map(r => r.getLong(0) -> r.getInt(1)).toMap

  private def offsArrays(df: org.apache.spark.sql.DataFrame): Map[Long, Seq[Int]] =
    df.collect().map(r => r.getLong(0) -> r.getSeq[Int](1)).toMap

  /** offs[k-1] of the all-tau rows for taus = k, as (gid -> offset). */
  private def atTau(all: org.apache.spark.sql.DataFrame, k: Int): Map[Long, Int] =
    offsArrays(all).map { case (gid, offs) => gid -> offs(k - 1) }

  private def checkAlpha(edges: Vector[(Long, Long, Double)], alpha: Int): Unit = {
    val got = atTau(Offsets.alphaOffsetsAll(toDF(spark, edges), alpha), alpha)
    val exp = LocalBipartite(edges).alphaOffsets(alpha)
    // the oracle omits zero offsets; Spark reports every vertex
    assert(got.filter(_._2 > 0) == exp, s"alpha=$alpha")
    got.filter(_._2 == 0).keys.foreach(x => assert(!exp.contains(x)))
  }

  private def checkBeta(edges: Vector[(Long, Long, Double)], beta: Int): Unit = {
    val got = atTau(Offsets.betaOffsetsAll(toDF(spark, edges), beta), beta)
    val exp = LocalBipartite(edges).betaOffsets(beta)
    assert(got.filter(_._2 > 0) == exp, s"beta=$beta")
    got.filter(_._2 == 0).keys.foreach(x => assert(!exp.contains(x)))
  }

  /** Every fixture plus ten random graphs, five sparse and five dense. */
  private lazy val graphs: Seq[(String, Vector[(Long, Long, Double)])] =
    Seq("fig2" -> fig2, "k33Pendant" -> k33Pendant, "pathOf(5)" -> pathOf(5),
      "star" -> star, "twoBlocks" -> twoBlocks) ++
      (1 to 5).map(seed => s"sparse $seed" -> random(9, 8, 0.25, seed)) ++
      (6 to 10).map(seed => s"dense $seed" -> random(7, 8, 0.6, seed))

  test("fig2 alpha-offsets, alpha in 1..4") {
    (1 to 4).foreach(a => checkAlpha(fig2, a))
  }

  test("fig2 beta-offsets, beta in 1..4") {
    (1 to 4).foreach(b => checkBeta(fig2, b))
  }

  test("k33+pendant offsets") {
    checkAlpha(k33Pendant, 1); checkAlpha(k33Pendant, 3)
    checkBeta(k33Pendant, 1); checkBeta(k33Pendant, 3)
  }

  test("path and star offsets (cascade-heavy shapes)") {
    checkAlpha(path, 1); checkAlpha(path, 2)
    checkBeta(path, 2)
    checkAlpha(star, 6); checkBeta(star, 1)
  }

  test("random graphs offsets") {
    for (seed <- 1 to 3) {
      val g = random(7, 7, 0.4, seed)
      checkAlpha(g, 2)
      checkBeta(g, 2)
    }
  }

  test("vectorized all-tau offsets equal the oracle on every graph") {
    val locals = graphs.map { case (_, e) => LocalBipartite(e) }
    assert(locals.exists(g => (1 to g.degeneracy).exists(t => g.core(t, t).components.values.toSet.size > 1)),
      "no graph has a (tau,tau)-core with several components")
    assert(locals.map(_.degeneracy).max >= 4, "no graph has degeneracy >= 4")
    for ((name, edges) <- graphs) {
      val df = toDF(spark, edges)
      val g = LocalBipartite(edges)
      val delta = g.degeneracy
      def expected(t: Int, alpha: Boolean): Map[Long, Int] = {
        val off = if (alpha) g.alphaOffsets(t) else g.betaOffsets(t)
        g.vertices.map(x => x -> off.getOrElse(x, 0)).toMap
      }
      for (taus <- Seq(1, delta, delta + 2).distinct) {
        val both = offsArrays(Offsets.alphaBetaOffsetsAll(df, taus))
        for (t <- 1 to taus) {
          assert(both.map { case (x, o) => x -> o(t - 1) } == expected(t, alpha = true),
            s"$name: joint alpha part, taus=$taus t=$t")
          assert(both.map { case (x, o) => x -> o(taus + t - 1) } == expected(t, alpha = false),
            s"$name: joint beta part, taus=$taus t=$t")
        }
      }
      val taus = delta + 2
      val gotA = offsArrays(Offsets.alphaOffsetsAll(df, taus))
      val gotB = offsArrays(Offsets.betaOffsetsAll(df, taus))
      for (t <- 1 to taus) {
        assert(gotA.map { case (x, o) => x -> o(t - 1) } == expected(t, alpha = true), s"$name: alpha t=$t")
        assert(gotB.map { case (x, o) => x -> o(t - 1) } == expected(t, alpha = false), s"$name: beta t=$t")
      }
    }
  }

  test("core numbers equal the local (tau,tau)-core membership maxima") {
    for ((name, edges) <- graphs) {
      val got = offsetsMap(Offsets.coreNumbers(toDF(spark, edges)).select("gid", "core"))
      val g = LocalBipartite(edges)
      val d = g.degeneracy
      // vertex core number = max tau such that x is in the (tau,tau)-core
      val exp = g.vertices.map { x =>
        x -> (1 to d).filter(t => g.core(t, t).contains(x)).maxOption.getOrElse(0)
      }.toMap
      assert(got == exp, name)
    }
  }

  test("degeneracy matches the oracle on every fixture") {
    for (edges <- Seq(fig2, k33Pendant, path, star, twoBlocks)) {
      assert(Offsets.degeneracy(toDF(spark, edges)) == LocalBipartite(edges).degeneracy)
    }
  }

  test("degeneracy leaves only the fixpoint's final state persisted") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    assert(Offsets.degeneracy(toDF(spark, pathOf(8))) == 1)
    val added = sc.getPersistentRDDs.keySet -- before
    assert(added.size <= 1, s"${added.size} RDDs left persisted")
  }

  test("degeneracy on random graphs") {
    for (seed <- 4 to 6) {
      val g = random(6, 8, 0.45, seed)
      assert(Offsets.degeneracy(toDF(spark, g)) == LocalBipartite(g).degeneracy, s"seed=$seed")
    }
  }
}
