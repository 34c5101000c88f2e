package repro.local

import scala.collection.mutable

/** Sequential significant (alpha,beta)-community search algorithms.
  *
  * `semantic` is the definitional oracle; `peel`, `expand` and `binary` are
  * faithful renditions of the paper's Algorithms 4/5 and the binary-search
  * remark, and `expand` over the whole graph is the SCS-Baseline comparator.
  * All of them must return the same (unique, per Lemma 1) community.
  */
object LocalScs {
  import LocalBipartite._

  /** Definitional oracle: R is q's component in the (alpha,beta)-core of the
    * edges with weight >= t, for the largest weight level t where q survives.
    * Returns None when q is not in the (alpha,beta)-core at all.
    */
  def semantic(g: LocalBipartite, qGid: Long, alpha: Int, beta: Int): Option[LocalBipartite] = {
    val levels = g.edges.map(_._3).distinct.sorted
    var best: Option[LocalBipartite] = None
    levels.foreach { t =>
      val c = g.filterWeight(t).core(alpha, beta)
      if (c.contains(qGid)) best = Some(c.componentOf(qGid))
    }
    best
  }

  /** Algorithm 4 (SCS-Peel) over a precomputed (alpha,beta)-community.
    * Invariant: at the start of each iteration the working graph is an
    * (alpha,beta)-core containing q, so when q first fails the degree
    * constraint, R is q's component at the start of that iteration.
    */
  def peel(community: LocalBipartite, qGid: Long, alpha: Int, beta: Int): Option[LocalBipartite] = {
    if (!community.contains(qGid)) return None
    var c = community
    while (true) {
      if (c.edges.map(_._3).distinct.size <= 1) return Some(c.componentOf(qGid))
      val wMin = c.minWeight
      val next = LocalBipartite(c.edges.filter(_._3 != wMin)).core(alpha, beta)
      if (!next.contains(qGid)) return Some(c.componentOf(qGid))
      c = next.componentOf(qGid)
    }
    None // unreachable
  }

  /** SCS-Binary (paper remark): binary search over weight levels for the
    * largest t where q stays in the (alpha,beta)-core of {w >= t}.
    */
  def binary(community: LocalBipartite, qGid: Long, alpha: Int, beta: Int): Option[LocalBipartite] = {
    if (!community.contains(qGid)) return None
    val levels = community.edges.map(_._3).distinct.sorted.toIndexedSeq
    var lo = 0 // known-good (t = levels(0) keeps everything, q in core by input)
    var hi = levels.size - 1
    def ok(i: Int): Boolean = community.filterWeight(levels(i)).core(alpha, beta).contains(qGid)
    while (lo < hi) {
      val mid = (lo + hi + 1) / 2
      if (ok(mid)) lo = mid else hi = mid - 1
    }
    Some(community.filterWeight(levels(lo)).core(alpha, beta).componentOf(qGid))
  }

  /** Union-find with per-component edge and vertex accounting. */
  private final class Uf {
    private val parent = mutable.HashMap.empty[Long, Long]
    private val compEdges = mutable.HashMap.empty[Long, Long]
    private val compVerts = mutable.HashMap.empty[Long, Long]
    def find(x: Long): Long = {
      var r = x
      while (parent.getOrElse(r, r) != r) r = parent(r)
      var c = x
      while (parent.getOrElse(c, c) != c) { val n = parent(c); parent(c) = r; c = n }
      r
    }
    def addVertex(x: Long): Unit =
      if (!parent.contains(x)) { parent(x) = x; compEdges(x) = 0; compVerts(x) = 1 }
    def addEdge(x: Long, y: Long): Unit = {
      addVertex(x); addVertex(y)
      val rx = find(x); val ry = find(y)
      if (rx == ry) compEdges(rx) += 1
      else {
        parent(ry) = rx
        compEdges(rx) = compEdges(rx) + compEdges(ry) + 1
        compVerts(rx) = compVerts(rx) + compVerts(ry)
        compEdges.remove(ry); compVerts.remove(ry)
      }
    }
    def has(x: Long): Boolean = parent.contains(x)
    def edgesOf(x: Long): Long = compEdges(find(x))
  }

  /** Algorithm 5 (SCS-Expand) with union-find maintenance, Lemma 7/8 pruning
    * and the geometric (epsilon = 2) check schedule. `source` is the edge set
    * to expand from: the (alpha,beta)-community for SCS-Expand, the whole
    * graph for SCS-Baseline.
    */
  def expand(source: LocalBipartite, qGid: Long, alpha: Int, beta: Int,
             epsilon: Double = 2.0): Option[LocalBipartite] = {
    if (source.isEmpty) return None
    val levels = source.edges.map(_._3).distinct.sorted(Ordering[Double].reverse)
    val byLevel = source.edges.groupBy(_._3)
    val uf = new Uf
    val gStar = mutable.ArrayBuffer.empty[(Long, Long, Double)]
    var preSize = 0L
    var lastSeen = -1L

    def cStarEdges(): Vector[(Long, Long, Double)] = {
      val root = uf.find(qGid)
      gStar.iterator.filter { case (u, v, _) =>
        uf.find(gidU(u)) == root || uf.find(gidL(v)) == root
      }.toVector
    }

    def tryCheck(force: Boolean): Option[LocalBipartite] = {
      if (!uf.has(qGid)) return None
      val sz = uf.edgesOf(qGid)
      if (sz == lastSeen && !force) return None // C* unchanged
      lastSeen = sz
      val cs = LocalBipartite(cStarEdges())
      // Lemma 7: |E| - |U| - |L| >= alpha*beta - alpha - beta
      val bound = alpha.toLong * beta - alpha - beta
      if (!force &&
          cs.nEdges.toLong - cs.upperVertices.size - cs.lowerVertices.size < bound) return None
      // Lemma 8: >= beta upper vertices of degree >= alpha, >= alpha lower
      // vertices of degree >= beta, and q meets its own side's bound.
      val okU = cs.upperVertices.count(cs.degree(_) >= alpha) >= beta
      val okL = cs.lowerVertices.count(cs.degree(_) >= beta) >= alpha
      val okQ = if (isU(qGid)) cs.degree(qGid) >= alpha else cs.degree(qGid) >= beta
      if (!force && !(okU && okL && okQ)) return None
      if (!force && cs.nEdges < preSize * epsilon) return None
      preSize = cs.nEdges
      val peeled = cs.core(alpha, beta)
      if (!peeled.contains(qGid)) None
      else peel(peeled.componentOf(qGid), qGid, alpha, beta)
    }

    levels.foreach { t =>
      byLevel(t).foreach { case (u, v, w) =>
        gStar += ((u, v, w)); uf.addEdge(gidU(u), gidL(v))
      }
      tryCheck(force = false) match {
        case Some(r) => return Some(r)
        case None    =>
      }
    }
    tryCheck(force = true) // all edges inserted: the final check is exact
  }
}
