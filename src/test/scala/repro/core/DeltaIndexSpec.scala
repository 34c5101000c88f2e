package repro.core

import org.apache.spark.sql.functions._
import org.apache.spark.JobCounter
import repro.{SparkSpec, TestGraphs}
import repro.graph.Bipartite
import repro.local.LocalBipartite
import LocalBipartite.{gidL, gidU}

/** I_delta construction (Algorithm 3) and Q_opt (Algorithm 2 over I_delta)
  * vs the sequential oracle.
  */
class DeltaIndexSpec extends SparkSpec {
  import TestGraphs._

  private lazy val fig2Df = toDF(spark, fig2)
  private lazy val fig2Idx = DeltaIndex.build(fig2Df)
  private lazy val fig2Local = LocalBipartite(fig2)

  test("delta equals the oracle degeneracy") {
    assert(fig2Idx.delta == fig2Local.degeneracy)
    assert(fig2Idx.delta == 3)
  }

  test("part-a entries store exactly the (tau,tau)-core adjacency with offsets >= tau") {
    for (tau <- 1 to fig2Idx.delta) {
      val off = fig2Local.alphaOffsets(tau)
      val expected = (for {
        (u, v, w) <- fig2
        if off.getOrElse(gidU(u), 0) >= tau && off.getOrElse(gidL(v), 0) >= tau
        row <- Seq((gidU(u), gidL(v), off(gidL(v))), (gidL(v), gidU(u), off(gidU(u))))
      } yield row).toSet
      val got = fig2Idx.entries
        .filter(col("part") === "a" && col("tau") === tau)
        .select("src", "dst", "off")
        .collect().map(r => (r.getLong(0), r.getLong(1), r.getInt(2))).toSet
      assert(got == expected, s"tau=$tau")
    }
  }

  test("part-b entries keep only neighbors with beta-offset strictly above tau") {
    for (tau <- 1 to fig2Idx.delta) {
      val off = fig2Local.betaOffsets(tau)
      val expected = (for {
        (u, v, w) <- fig2
        pair <- Seq((gidU(u), gidL(v)), (gidL(v), gidU(u)))
        if off.getOrElse(pair._1, 0) >= tau && off.getOrElse(pair._2, 0) > tau
      } yield (pair._1, pair._2, off(pair._2))).toSet
      val got = fig2Idx.entries
        .filter(col("part") === "b" && col("tau") === tau)
        .select("src", "dst", "off")
        .collect().map(r => (r.getLong(0), r.getLong(1), r.getInt(2))).toSet
      assert(got == expected, s"tau=$tau")
    }
  }

  test("vertex offset lookups match the oracle") {
    val offs = fig2Idx.vertexOffsets.select("part", "tau", "gid", "off").collect()
      .map(r => (r.getString(0), r.getInt(1), r.getLong(2)) -> r.getInt(3)).toMap
    def offsetOf(part: String, x: Long, tau: Int): Int = offs.getOrElse((part, tau, x), 0)
    for (tau <- 1 to fig2Idx.delta; x <- Seq(gidU(1), gidU(3), gidU(5), gidL(1), gidL(4))) {
      assert(offsetOf("a", x, tau) == fig2Local.alphaOffsets(tau).getOrElse(x, 0),
        s"alpha x=$x tau=$tau")
      assert(offsetOf("b", x, tau) == fig2Local.betaOffsets(tau).getOrElse(x, 0),
        s"beta x=$x tau=$tau")
    }
  }

  test("Q_opt returns the (alpha,beta)-community: alpha<=beta branch") {
    for ((a, b) <- Seq((1, 1), (1, 3), (2, 2), (2, 4), (3, 3))) {
      val got = edgeSet(DeltaIndex.query(fig2Idx, gidU(3), a, b))
      val exp = fig2Local.community(gidU(3), a, b).edges.toSet
      assert(got == exp, s"(a,b)=($a,$b)")
    }
  }

  test("Q_opt returns the (alpha,beta)-community: alpha>beta branch") {
    for ((a, b) <- Seq((2, 1), (3, 1), (3, 2), (4, 2))) {
      val got = edgeSet(DeltaIndex.query(fig2Idx, gidU(1), a, b))
      val exp = fig2Local.community(gidU(1), a, b).edges.toSet
      assert(got == exp, s"(a,b)=($a,$b)")
    }
  }

  test("Q_opt from a lower-layer query vertex") {
    for ((a, b) <- Seq((2, 2), (1, 2), (2, 1))) {
      val got = edgeSet(DeltaIndex.query(fig2Idx, gidL(1), a, b))
      val exp = fig2Local.community(gidL(1), a, b).edges.toSet
      assert(got == exp, s"(a,b)=($a,$b)")
    }
  }

  test("Q_opt on a path runs one job per BFS round") {
    val edges = pathOf(6)
    val ecc = 12 // of u1 on pathOf(6), all of which is the (1,1)-core
    val idx = DeltaIndex.build(toDF(spark, edges))
    val (got, jobs) = JobCounter.jobsIn(spark.sparkContext)(edgeSet(DeltaIndex.query(idx, gidU(1), 1, 1)))
    assert(got == LocalBipartite(edges).community(gidU(1), 1, 1).edges.toSet)
    assert(jobs <= ecc + 1, s"$jobs jobs for ${ecc + 1} rounds")
  }

  test("Q_opt empty cases: q outside core; min(a,b) beyond delta") {
    assert(DeltaIndex.query(fig2Idx, gidU(5), 2, 2).isEmpty)   // pendant
    assert(DeltaIndex.query(fig2Idx, gidU(1), 4, 4).isEmpty)   // > delta both
    assert(DeltaIndex.query(fig2Idx, gidU(999), 1, 1).isEmpty) // absent vertex
    // v3 and u4 have entries in the slice, but their own offset at tau is
    // below the bound: they are outside the core, in part a and part b.
    for ((q, a, b, part) <- Seq((gidL(3), 2, 4, "a"), (gidU(4), 3, 2, "b"))) {
      val (tau, bound) = (math.min(a, b), math.max(a, b))
      val off = (if (part == "a") fig2Local.alphaOffsets(tau) else fig2Local.betaOffsets(tau))(q)
      assert(off >= tau && off < bound, s"q=$q offset $off")
      assert(fig2Idx.entries.filter(col("part") === part && col("tau") === tau && col("off") >= bound &&
        col("src") === q).count() > 0, s"q=$q has no slice entries")
      assert(fig2Local.community(q, a, b).isEmpty)
      assert(DeltaIndex.query(fig2Idx, q, a, b).isEmpty, s"q=$q (a,b)=($a,$b)")
    }
  }

  test("index on a random graph: queries across the grid match the oracle") {
    val edges = random(6, 6, 0.5, seed = 9)
    val idx = DeltaIndex.build(toDF(spark, edges))
    val g = LocalBipartite(edges)
    assert(idx.delta == g.degeneracy)
    for ((a, b) <- Seq((1, 2), (2, 1), (2, 2), (3, 3), (1, 4)); q <- Seq(gidU(1), gidL(2))) {
      val got = edgeSet(DeltaIndex.query(idx, q, a, b))
      val exp = g.community(q, a, b).edges.toSet
      assert(got == exp, s"q=$q (a,b)=($a,$b)")
    }
  }

  test("entry count is bounded by 2 * delta * 2m (Lemma 5 shape)") {
    val m = fig2.size.toLong
    assert(fig2Idx.entryCount <= 2L * fig2Idx.delta * 2L * m)
  }

  test("withWeights re-targets the structural index to a new weighting") {
    val reweighted = fig2.map { case (u, v, w) => (u, v, w * 10 + u + v) }
    val idx2 = DeltaIndex.withWeights(fig2Idx, toDF(spark, reweighted))
    assert(idx2.delta == fig2Idx.delta)
    assert(idx2.entryCount == fig2Idx.entryCount)
    val got = edgeSet(DeltaIndex.query(idx2, gidU(3), 2, 2))
    val exp = LocalBipartite(reweighted).community(gidU(3), 2, 2).edges.toSet
    assert(got == exp)
  }

  test("empty graph builds an empty index") {
    val idx = DeltaIndex.build(fig2Df.limit(0))
    assert(idx.delta == 0)
    assert(idx.entryCount == 0)
    for (isAlpha <- Seq(true, false)) {
      val basic = BasicIndexes.build(fig2Df.limit(0), isAlpha)
      assert(basic.entryCount == 0, s"isAlpha=$isAlpha")
      assert(BasicIndexes.query(basic, gidU(1), 1, 1).isEmpty, s"isAlpha=$isAlpha")
    }
  }

  test("build on a cascade-heavy path runs at most a third of the join-loop build's jobs") {
    // pathOf(8) peels from both ends one vertex per round. The build with
    // one join-then-groupBy fixpoint per offsets part, two sum jobs per
    // round for its convergence test and alpha/beta run one after the other
    // ran 139 jobs here, and the SQL fixpoint with two jobs per half-step 38;
    // with one job per half-step it runs 20.
    val edges = pathOf(8)
    val (idx, jobs) = JobCounter.jobsIn(spark.sparkContext)(DeltaIndex.build(toDF(spark, edges)))
    assert(idx.delta == 1)
    assert(idx.entries.filter(col("part") === "a" && col("tau") === 1).count() == 2L * edges.size)
    assert(jobs <= 20, s"$jobs jobs")
  }
}
