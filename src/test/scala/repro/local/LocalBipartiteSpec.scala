package repro.local

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import LocalBipartite.{gidL, gidU}

/** Unit tests for the sequential oracle itself — these must be right, since
  * every Spark module is validated against it.
  */
class LocalBipartiteSpec extends AnyFunSuite {

  val fig2 = LocalBipartite(TestGraphs.fig2)
  val k33 = LocalBipartite(TestGraphs.k33Pendant)
  val path = LocalBipartite(TestGraphs.path)
  val star = LocalBipartite(TestGraphs.star)

  test("degrees on fig2") {
    assert(fig2.degree(gidU(1)) == 4)
    assert(fig2.degree(gidU(4)) == 2)
    assert(fig2.degree(gidL(1)) == 20)
    assert(fig2.degree(gidL(4)) == 1)
    assert(fig2.degree(gidU(99)) == 0)
  }

  test("(1,1)-core keeps everything") {
    assert(fig2.core(1, 1).edges.toSet == fig2.edges.toSet)
  }

  test("(2,2)-core of fig2 drops pendants and v4") {
    val c = fig2.core(2, 2)
    assert(c.upperVertices == Set(gidU(1), gidU(2), gidU(3), gidU(4)))
    assert(c.lowerVertices == Set(gidL(1), gidL(2), gidL(3)))
    assert(c.nEdges == 11)
  }

  test("(3,3)-core of fig2 is the u1-u3 x v1-v3 block minus missing edges") {
    val c = fig2.core(3, 3)
    assert(c.upperVertices == Set(gidU(1), gidU(2), gidU(3)))
    assert(c.lowerVertices == Set(gidL(1), gidL(2), gidL(3)))
    assert(c.nEdges == 9)
  }

  test("core hierarchy: (a,b)-core contained in (a',b')-core for a>=a', b>=b'") {
    for ((a, b) <- TestGraphs.paramGrid(4, 4); (a2, b2) <- TestGraphs.paramGrid(a, b)) {
      val big = fig2.core(a2, b2).edges.toSet
      val small = fig2.core(a, b).edges.toSet
      assert(small.subsetOf(big), s"core($a,$b) not within core($a2,$b2)")
    }
  }

  test("core of K33+pendant") {
    val c = k33.core(2, 2)
    assert(c.nEdges == 9)
    assert(!c.contains(gidU(4)))
    // the pendant survives a (1,1)-core
    assert(k33.core(1, 1).contains(gidU(4)))
  }

  test("cascade peeling: path collapses under (2,2)") {
    assert(path.core(2, 2).isEmpty)
    assert(path.core(2, 1).nEdges == 2) // only u2 has degree 2; its two edges survive
  }

  test("degeneracy of fig2 is 3") {
    assert(fig2.degeneracy == 3)
  }

  test("degeneracy of K33 is 3, star is 1, path is 1, empty is 0") {
    assert(k33.degeneracy == 3)
    assert(star.degeneracy == 1)
    assert(path.degeneracy == 1)
    assert(LocalBipartite(Vector.empty).degeneracy == 0)
  }

  test("alpha-offsets on fig2 at alpha=2") {
    val off = fig2.alphaOffsets(2)
    // u1..u4 and v1..v3 are in the (2,3)-core? (2,2)-core yes; check values:
    // (2,3)-core: v's need deg >= 3 -> v1,v2,v3 have deg 4,4,3 in the (2,2)-core
    // u4 has deg 2 >= 2; all survive => offsets at least 3.
    assert(off(gidU(3)) >= 2)
    assert(off(gidU(4)) >= 2)
    // pendant u5 is in (2,1)-core? deg(u5)=1 < 2 -> offset 0 (absent)
    assert(!off.contains(gidU(5)))
  }

  test("alpha-offset definition holds on fig2 for all alpha") {
    for (alpha <- 1 to 5) {
      val off = fig2.alphaOffsets(alpha)
      for (x <- fig2.vertices) {
        val o = off.getOrElse(x, 0)
        if (o > 0) {
          assert(fig2.core(alpha, o).contains(x), s"x=$x alpha=$alpha off=$o")
          assert(!fig2.core(alpha, o + 1).contains(x))
        } else {
          assert(!fig2.core(alpha, 1).contains(x))
        }
      }
    }
  }

  test("beta-offset definition holds on fig2 for all beta") {
    for (beta <- 1 to 5) {
      val off = fig2.betaOffsets(beta)
      for (x <- fig2.vertices) {
        val o = off.getOrElse(x, 0)
        if (o > 0) {
          assert(fig2.core(o, beta).contains(x), s"x=$x beta=$beta off=$o")
          assert(!fig2.core(o + 1, beta).contains(x))
        } else {
          assert(!fig2.core(1, beta).contains(x))
        }
      }
    }
  }

  test("components of twoBlocks: bridged into one; removing bridge splits") {
    val g = LocalBipartite(TestGraphs.twoBlocks)
    assert(g.components.values.toSet.size == 1)
    val cut = LocalBipartite(TestGraphs.twoBlocks.filter(_._3 != 1.0))
    assert(cut.components.values.toSet.size == 2)
    assert(cut.componentOf(gidU(1)).nEdges == 4)
    assert(cut.componentOf(gidU(3)).nEdges == 4)
  }

  test("componentOf absent vertex is empty") {
    assert(fig2.componentOf(gidU(1000)).isEmpty)
  }

  test("community = component of core") {
    val c = fig2.community(gidU(3), 2, 2)
    assert(c.nEdges == 11) // fig2's (2,2)-core is connected
    assert(fig2.community(gidU(5), 2, 2).isEmpty) // pendant not in core
  }

  test("butterfly support in K33") {
    val g = LocalBipartite((for { u <- 1L to 3L; v <- 1L to 3L } yield (u, v, 1.0)).toVector)
    val sup = g.butterflySupport
    // each edge of K33 is in (3-1)*(3-1) = 4 butterflies
    assert(sup.values.toSet == Set(4L))
  }

  test("butterfly support of a path is zero") {
    assert(path.butterflySupport.values.forall(_ == 0))
  }

  test("bitruss of K33+pendant at k=4 drops the pendant") {
    val t = k33.bitruss(4)
    assert(t.nEdges == 9)
    val t5 = k33.bitruss(5)
    assert(t5.isEmpty)
  }

  test("maximality: core result satisfies degree constraints") {
    for ((a, b) <- TestGraphs.paramGrid(3, 3)) {
      val c = fig2.core(a, b)
      c.upperVertices.foreach(u => assert(c.degree(u) >= a))
      c.lowerVertices.foreach(v => assert(c.degree(v) >= b))
    }
  }
}
