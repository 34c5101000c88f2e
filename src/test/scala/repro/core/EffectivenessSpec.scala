package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.local.LocalBipartite
import LocalBipartite.{gidL, gidU}

/** The Table II comparison models: C4*, bitruss community, greedy biclique,
  * and the statistics row computation.
  */
class EffectivenessSpec extends SparkSpec {
  import TestGraphs._

  test("c4star keeps only components over items with avg weight >= 4") {
    // v1 avg = (5+2+5+5+sixteen 1s)/20 < 4; build a clean example instead:
    val edges = Vector(
      (1L, 1L, 5.0), (2L, 1L, 5.0), (1L, 2L, 4.0), (2L, 2L, 4.0),
      (3L, 3L, 1.0), (4L, 3L, 2.0), (3L, 4L, 5.0)) // v3 avg 1.5, v4 avg 5
    val df = toDF(spark, edges)
    val got = edgeSet(Effectiveness.c4star(df, gidU(1)))
    assert(got == Set((1L, 1L, 5.0), (2L, 1L, 5.0), (1L, 2L, 4.0), (2L, 2L, 4.0)))
    // u3 connects to v4 (avg 5) once v3 is dropped
    val got2 = edgeSet(Effectiveness.c4star(df, gidU(3)))
    assert(got2 == Set((3L, 4L, 5.0)))
  }

  test("bitruss community equals the oracle's bitruss component") {
    val df = toDF(spark, fig2)
    val got = edgeSet(Effectiveness.bitrussCommunity(df, gidU(3), 2))
    val exp = LocalBipartite(fig2).bitruss(2).componentOf(gidU(3)).edges.toSet
    assert(got == exp)
  }

  test("greedy biclique on K33 recovers the full biclique") {
    val k33 = (for { u <- 1L to 3L; v <- 1L to 3L } yield (u, v, 2.0)).toVector
    val got = edgeSet(Effectiveness.bicliqueCommunity(toDF(spark, k33), gidU(1), 3))
    assert(got == k33.toSet)
  }

  test("greedy biclique from a lower-layer query vertex") {
    val k33 = (for { u <- 1L to 3L; v <- 1L to 3L } yield (u, v, 2.0)).toVector
    val got = edgeSet(Effectiveness.bicliqueCommunity(toDF(spark, k33), gidL(2), 3))
    assert(got == k33.toSet)
  }

  test("greedy biclique inside fig2 finds the dense block at s=3") {
    val got = edgeSet(Effectiveness.bicliqueCommunity(toDF(spark, fig2), gidU(3), 3))
    // u1,u2,u3 x v1,v2,v3 is a complete 3x3 block in fig2
    val exp = (for { u <- 1L to 3L; v <- 1L to 3L } yield (u, v)).toSet
    assert(got.map(e => (e._1, e._2)) == exp)
  }

  test("biclique of a vertex outside any (s,s)-core is empty") {
    assert(Effectiveness.bicliqueCommunity(toDF(spark, fig2), gidU(5), 3).isEmpty)
  }

  test("stats computes the Table II row fields") {
    val ref = toDF(spark, Vector((1L, 1L, 4.0), (1L, 2L, 5.0), (2L, 1L, 4.0)))
    val s = Effectiveness.stats("self", ref, ref)
    assert(s.nU == 2 && s.nL == 2)
    assert(math.abs(s.rAvg - 13.0 / 3) < 1e-9)
    assert(s.rMin == 4.0)
    assert(math.abs(s.mAvg - 1.5) < 1e-9)
    assert(math.abs(s.simPct - 100.0) < 1e-9)
  }

  test("stats Jaccard similarity between overlapping communities") {
    val a = toDF(spark, Vector((1L, 1L, 1.0), (2L, 1L, 1.0)))          // {u1,u2,v1}
    val b = toDF(spark, Vector((1L, 1L, 1.0), (3L, 2L, 1.0)))          // {u1,u3,v1,v2}
    val s = Effectiveness.stats("a", a, b)
    // intersection {u1,v1}=2, union {u1,u2,u3,v1,v2}=5
    assert(math.abs(s.simPct - 40.0) < 1e-9)
  }

  test("stats of an empty community is the zero row") {
    val empty = toDF(spark, Vector.empty[(Long, Long, Double)])
    val ref = toDF(spark, Vector((1L, 1L, 1.0)))
    val s = Effectiveness.stats("none", empty, ref)
    assert(s == Effectiveness.ModelStats("none", 0, 0, 0.0, 0.0, 0.0, 0.0))
  }
}
