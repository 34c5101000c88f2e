package repro.local

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import LocalBipartite.{gidL, gidU}

/** Cross-checks of the SCS engine's SCS-Peel, SCS-Expand and SCS-Baseline
  * against the definitional oracle `semantic`, including the paper's
  * Figure 2 running example.
  */
class LocalScsSpec extends AnyFunSuite {

  val fig2 = LocalBipartite(TestGraphs.fig2)

  private def allAlgos(g: LocalBipartite, qGid: Long, a: Int, b: Int):
      Seq[(String, Option[Set[(Long, Long, Double)]])] = {
    val community = g.community(qGid, a, b)
    val comm = if (community.isEmpty) None else Some(community)
    Seq(
      "semantic" -> LocalScs.semantic(g, qGid, a, b).map(_.edges.toSet),
      "peel" -> comm.flatMap(c => LocalScs.peel(c, qGid, a, b)).map(_.edges.toSet),
      "expand" -> comm.flatMap(c => LocalScs.expand(c, qGid, a, b)).map(_.edges.toSet),
      "baseline" -> LocalScs.expand(g, qGid, a, b).map(_.edges.toSet),
    )
  }

  test("fig2: significant (2,2)-community of u3 matches the paper's example") {
    val r = LocalScs.semantic(fig2, gidU(3), 2, 2)
    assert(r.isDefined)
    assert(r.get.edges.toSet == TestGraphs.fig2ScU3)
  }

  test("fig2: all four algorithms agree on u3 (2,2)") {
    val results = allAlgos(fig2, gidU(3), 2, 2)
    results.foreach { case (name, res) =>
      assert(res.contains(TestGraphs.fig2ScU3), s"algorithm $name disagreed: $res")
    }
  }

  test("fig2: q outside the core yields None everywhere") {
    val results = allAlgos(fig2, gidU(5), 2, 2) // pendant
    results.foreach { case (name, res) => assert(res.isEmpty, s"$name returned $res") }
  }

  test("all-equal weights return the whole community") {
    val g = LocalBipartite(TestGraphs.k33Pendant.map { case (u, v, _) => (u, v, 7.0) })
    val r = LocalScs.peel(g.community(gidU(1), 2, 2), gidU(1), 2, 2)
    assert(r.get.edges.toSet == g.core(2, 2).edges.toSet)
  }

  test("significance is maximized: result min weight >= any valid alternative") {
    // In fig2 at (2,2) from u1: u1's best block keeps min weight 2
    val r = LocalScs.semantic(fig2, gidU(1), 2, 2).get
    val fR = r.edges.map(_._3).min
    // exhaustive: every weight level above fR kicks u1 out of the core
    val levels = fig2.edges.map(_._3).distinct.filter(_ > fR)
    levels.foreach { t =>
      assert(!fig2.filterWeight(t).core(2, 2).contains(gidU(1)))
    }
  }

  test("result satisfies connectivity + cohesiveness + maximality") {
    for {
      q <- Seq(gidU(1), gidU(3), gidL(1), gidL(2))
      (a, b) <- TestGraphs.paramGrid(3, 3)
    } {
      LocalScs.semantic(fig2, q, a, b).foreach { r =>
        assert(r.contains(q))
        assert(r.components.values.toSet.size == 1, s"q=$q a=$a b=$b not connected")
        r.upperVertices.foreach(u => assert(r.degree(u) >= a))
        r.lowerVertices.foreach(v => assert(r.degree(v) >= b))
        // edge-maximality at the final significance
        val f = r.edges.map(_._3).min
        val reference = fig2.filterWeight(f).core(a, b).componentOf(q)
        assert(r.edges.toSet == reference.edges.toSet)
      }
    }
  }

  test("agreement across algorithms on random graphs") {
    for (seed <- 1 to 12) {
      val g = LocalBipartite(TestGraphs.random(6, 6, 0.45, seed))
      for {
        q <- Seq(gidU(1), gidL(1), gidU(3))
        (a, b) <- Seq((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3))
      } {
        val results = allAlgos(g, q, a, b)
        val expected = results.head._2
        results.tail.foreach { case (name, res) =>
          assert(res == expected, s"seed=$seed q=$q a=$a b=$b $name: $res vs $expected")
        }
      }
    }
  }

  test("expansion with epsilon=1 (check every growth) still agrees") {
    for (seed <- 1 to 5) {
      val g = LocalBipartite(TestGraphs.random(5, 5, 0.5, seed + 100))
      val q = gidU(1)
      val c = g.community(q, 2, 2)
      val sem = LocalScs.semantic(g, q, 2, 2).map(_.edges.toSet)
      val exp =
        if (c.isEmpty) None
        else LocalScs.expand(c, q, 2, 2, epsilon = 1.0).map(_.edges.toSet)
      assert(exp == sem, s"seed=$seed")
    }
  }

  test("twoBlocks: SC of u1 at (2,2) stays in the high-weight block") {
    val g = LocalBipartite(TestGraphs.twoBlocks)
    val r = LocalScs.semantic(g, gidU(1), 2, 2).get
    // (2,2)-core of {w>=3}: block1 edges have weights 4,4,4,3
    assert(r.edges.toSet == Set((1L, 1L, 4.0), (1L, 2L, 4.0), (2L, 1L, 4.0), (2L, 2L, 3.0)))
  }
}
