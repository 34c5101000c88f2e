package repro.local

import org.scalacheck.{Gen, Prop, Properties, Shrink}
import org.scalacheck.Prop.forAll
import LocalBipartite.{gidL, gidU}

/** Property-based validation of the sequential oracle (raw ScalaCheck —
  * sbt runs `Properties` natively; the scalatest bridge is not available
  * offline).
  */
object LocalProperties extends Properties("Local") {

  private val genGraph: Gen[LocalBipartite] = for {
    nU <- Gen.choose(1, 7)
    nL <- Gen.choose(1, 7)
    density <- Gen.choose(2, 7)
    pairs <- Gen.listOfN(nU * nL, Gen.choose(0, 9))
  } yield {
    val es = for {
      (roll, i) <- pairs.zipWithIndex
      if roll < density
      u = (i / nL) + 1
      v = (i % nL) + 1
    } yield (u.toLong, v.toLong, ((roll % 4) + 1).toDouble)
    LocalBipartite(es.toVector)
  }

  private val genAB: Gen[(Int, Int)] =
    for { a <- Gen.choose(1, 4); b <- Gen.choose(1, 4) } yield (a, b)

  /** Shrinks alpha and beta only inside [1, 4], the range they are drawn
    * from: 0 is not a valid query parameter. Also used for `genAB`'s pairs.
    */
  private implicit val shrinkParam: Shrink[Int] =
    Shrink.shrinkIntegral[Int].suchThat(x => x >= 1 && x <= 4)

  property("alpha and beta shrink only inside [1, 4]") = forAll(genAB) { ab =>
    Shrink.shrink(ab).forall { case (a, b) => a >= 1 && a <= 4 && b >= 1 && b <= 4 } &&
      Shrink.shrink(ab._1).forall(a => a >= 1 && a <= 4)
  }

  property("core satisfies degree constraints") = forAll(genGraph, genAB) { (g, ab) =>
    val (a, b) = ab
    val c = g.core(a, b)
    c.upperVertices.forall(c.degree(_) >= a) && c.lowerVertices.forall(c.degree(_) >= b)
  }

  property("core is maximal: no removed vertex could rejoin") = forAll(genGraph, genAB) { (g, ab) =>
    val (a, b) = ab
    val c = g.core(a, b)
    val removed = g.vertices -- c.vertices
    removed.forall { x =>
      // degree of x counted against the core's vertex set is insufficient
      val degIn = g.adj(x).count { case (y, _) => c.contains(y) }
      if (LocalBipartite.isU(x)) degIn < a else degIn < b
    }
  }

  property("core hierarchy (Lemma 2)") = forAll(genGraph, genAB) { (g, ab) =>
    val (a, b) = ab
    g.core(a + 1, b).edges.toSet.subsetOf(g.core(a, b).edges.toSet) &&
      g.core(a, b + 1).edges.toSet.subsetOf(g.core(a, b).edges.toSet)
  }

  property("alpha-offset matches core membership") = forAll(genGraph, Gen.choose(1, 4)) { (g, a) =>
    val off = g.alphaOffsets(a)
    g.vertices.forall { x =>
      val o = off.getOrElse(x, 0)
      (o == 0 || (g.core(a, o).contains(x) && !g.core(a, o + 1).contains(x))) &&
        (o > 0 || !g.core(a, 1).contains(x))
    }
  }

  property("beta-offset matches core membership") = forAll(genGraph, Gen.choose(1, 4)) { (g, b) =>
    val off = g.betaOffsets(b)
    g.vertices.forall { x =>
      val o = off.getOrElse(x, 0)
      (o == 0 || (g.core(o, b).contains(x) && !g.core(o + 1, b).contains(x))) &&
        (o > 0 || !g.core(1, b).contains(x))
    }
  }

  property("degeneracy: (d,d)-core nonempty, (d+1,d+1)-core empty") = forAll(genGraph) { g =>
    val d = g.degeneracy
    (d == 0 || !g.core(d, d).isEmpty) && g.core(d + 1, d + 1).isEmpty
  }

  property("Lemma 4: nonempty core has min(a,b) <= delta") = forAll(genGraph, genAB) { (g, ab) =>
    val (a, b) = ab
    val c = g.core(a, b)
    c.isEmpty || math.min(a, b) <= g.degeneracy
  }

  property("components partition the vertices") = forAll(genGraph) { g =>
    val comp = g.components
    comp.keySet == g.vertices && g.edges.forall { case (u, v, _) =>
      comp(gidU(u)) == comp(gidL(v))
    }
  }

  property("SCS algorithms agree with the semantic oracle") = forAll(genGraph, genAB) { (g, ab) =>
    val (a, b) = ab
    val qs = (g.upperVertices.take(2) ++ g.lowerVertices.take(1)).toSeq
    if (qs.isEmpty) Prop.passed
    else Prop.all(qs.map { q =>
      val sem = LocalScs.semantic(g, q, a, b).map(_.edges.toSet)
      val community = g.community(q, a, b)
      val peel =
        if (community.isEmpty) None
        else LocalScs.peel(community, q, a, b).map(_.edges.toSet)
      val expand =
        if (community.isEmpty) None
        else LocalScs.expand(community, q, a, b).map(_.edges.toSet)
      val peelG = LocalScs.peel(g, q, a, b).map(_.edges.toSet)
      val base = LocalScs.expand(g, q, a, b).map(_.edges.toSet)
      Prop(peel == sem && expand == sem && peelG == sem && base == sem) :| s"q=$q sem=$sem peel=$peel expand=$expand peel(G)=$peelG base=$base"
    }: _*)
  }

  property("SC significance dominates any other feasible subgraph") = forAll(genGraph, genAB) { (g, ab) =>
    val (a, b) = ab
    val qs = g.upperVertices.take(2).toSeq
    if (qs.isEmpty) Prop.passed
    else Prop.all(qs.map { q =>
      LocalScs.semantic(g, q, a, b) match {
        case None => Prop(g.community(q, a, b).isEmpty) :| s"q=$q no-result-iff-no-community"
        case Some(r) =>
          val f = r.edges.map(_._3).min
          val better = g.edges.map(_._3).distinct.filter(_ > f)
          Prop(better.forall(t => !g.filterWeight(t).core(a, b).contains(q))) :| s"q=$q f=$f"
      }
    }: _*)
  }
}
