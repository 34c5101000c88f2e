package repro.local

import scala.collection.mutable

/** Significant (alpha,beta)-community search (paper §IV).
  *
  * `semantic` is the definitional oracle and shares no code with the rest.
  * `peel` and `expand` are the paper's Algorithms 4 and 5 over arrays: the
  * one SCS engine, which `core.Scs` runs on the edges it collects, and
  * `expand` over the whole graph is SCS-Baseline. All return the same
  * (unique, per Lemma 1) community: the connected subgraph containing q that
  * satisfies the degree constraints and maximizes the minimum edge weight,
  * or None when q is not in the (alpha,beta)-core of the input.
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

  /** SCS-Peel (Algorithm 4) over C_{alpha,beta}(q). Any edge set is
    * accepted: it is peeled to its (alpha,beta)-core and cut to q's
    * component first. Rejects NaN weights and duplicate edges.
    */
  def peel(g: LocalBipartite, qGid: Long, alpha: Int, beta: Int): Option[LocalBipartite] =
    run(g)(_.peel(qGid, alpha, beta))

  /** SCS-Expand (Algorithm 5): expansion restricted to `source`, checking at
    * most when C* grew by `epsilon`. `source` is the (alpha,beta)-community
    * for SCS-Expand and the whole graph for SCS-Baseline. Rejects NaN weights
    * and duplicate edges.
    */
  def expand(source: LocalBipartite, qGid: Long, alpha: Int, beta: Int,
             epsilon: Double = 2.0): Option[LocalBipartite] =
    run(source)(_.expand(qGid, alpha, beta, epsilon))

  private def run(g: LocalBipartite)(alg: Engine => Option[Array[Int]]): Option[LocalBipartite] =
    alg(new Engine(g.edges)).map(r => LocalBipartite(r.toVector.map(g.edges)))

  /** An edge list in array form. Upper vertices are 0 until nU, lower
    * vertices nU until n; edge e joins src(e) to dst(e) with weight w(e);
    * adj holds each vertex's edge ids (CSR); byLevel lists the edge ids in
    * ascending weight, level l spanning levelStart(l) until levelStart(l+1).
    * Results are arrays of edge ids, i.e. indexes into `edges`.
    */
  private final class Engine(edges: IndexedSeq[(Long, Long, Double)]) {
    private val m = edges.length
    private val upper = mutable.LongMap.empty[Int]
    private val lower = mutable.LongMap.empty[Int]
    private val src = edges.iterator.map(e => upper.getOrElseUpdate(e._1, upper.size)).toArray
    private val nU = upper.size
    private val dst = edges.iterator.map(e => nU + lower.getOrElseUpdate(e._2, lower.size)).toArray
    private val n = nU + lower.size
    private val w = edges.iterator.map(_._3).toArray
    require(!w.exists(_.isNaN), "SCS edge weights must not be NaN")

    private val (offs, adj) = {
      val offs = new Array[Int](n + 1)
      for (e <- 0 until m) { offs(src(e) + 1) += 1; offs(dst(e) + 1) += 1 }
      for (x <- 0 until n) offs(x + 1) += offs(x)
      val fill = offs.clone()
      val adj = new Array[Int](2 * m)
      for (e <- 0 until m) {
        adj(fill(src(e))) = e; fill(src(e)) += 1
        adj(fill(dst(e))) = e; fill(dst(e)) += 1
      }
      (offs, adj)
    }

    { // a duplicate (u, v) would count twice in both endpoints' degrees
      val last = Array.fill(n)(-1)
      for (x <- 0 until nU; k <- offs(x) until offs(x + 1)) {
        val e = adj(k)
        require(last(dst(e)) != x, s"duplicate edge (u=${edges(e)._1}, v=${edges(e)._2})")
        last(dst(e)) = x
      }
    }

    private val (levelStart, byLevel) = {
      val levels = w.distinct.sorted(Ordering.Double.TotalOrdering) // the order binarySearch assumes
      val level = w.map(java.util.Arrays.binarySearch(levels, _))
      val start = new Array[Int](levels.length + 1)
      level.foreach(l => start(l + 1) += 1)
      for (l <- levels.indices) start(l + 1) += start(l)
      val fill = start.clone()
      val by = new Array[Int](m)
      for (e <- 0 until m) { by(fill(level(e))) = e; fill(level(e)) += 1 }
      (start, by)
    }
    private def nLevels: Int = levelStart.length - 1

    private def vertexOf(qGid: Long): Int =
      if (isU(qGid)) upper.getOrElse(rawId(qGid), -1)
      else lower.get(rawId(qGid)).fold(-1)(_ + nU)

    private def other(e: Int, x: Int): Int = if (src(e) == x) dst(e) else src(e)

    /** Edge ids of the component of q over the `alive` edges. */
    private def component(alive: Array[Boolean], q: Int): Array[Int] = {
      val out = Array.newBuilder[Int]
      val seen = new Array[Boolean](n)
      val stack = new Array[Int](n)
      var sp = 1
      stack(0) = q; seen(q) = true
      while (sp > 0) {
        sp -= 1
        val x = stack(sp)
        for (k <- offs(x) until offs(x + 1)) {
          val e = adj(k)
          if (alive(e)) {
            if (x < nU) out += e // every edge has one upper endpoint
            val y = other(e, x)
            if (!seen(y)) { seen(y) = true; stack(sp) = y; sp += 1 }
          }
        }
      }
      out.result()
    }

    /** Algorithm 4 over the edges flagged in `alive` (consumed). A queue-based
      * cascade peel reduces the input to its (alpha,beta)-core, which is cut
      * to q's component; then each round deletes the batch of minimum-weight
      * edges and cascades. The working graph stays an (alpha,beta)-core, so
      * when q first loses its edges, R is q's component of the start-of-round
      * graph: the survivors plus the round's deletions S (the paper's S ∪ C).
      */
    private def peelFrom(alive: Array[Boolean], q: Int, alpha: Int, beta: Int): Option[Array[Int]] = {
      val (thU, thL) = (math.max(alpha, 1), math.max(beta, 1))
      val deg = new Array[Int](n)
      for (e <- 0 until m if alive(e)) { deg(src(e)) += 1; deg(dst(e)) += 1 }
      val gone = new Array[Boolean](n)
      val queue = new Array[Int](n)
      var qn = 0
      val deleted = new Array[Int](m) // S: this round's deletions
      var sn = 0
      def drop(x: Int): Unit =
        if (!gone(x) && deg(x) < (if (x < nU) thU else thL)) { gone(x) = true; queue(qn) = x; qn += 1 }
      def delete(e: Int): Unit = {
        alive(e) = false; deleted(sn) = e; sn += 1
        deg(src(e)) -= 1; deg(dst(e)) -= 1
        drop(src(e)); drop(dst(e))
      }
      def cascade(): Unit = while (qn > 0) {
        qn -= 1
        val x = queue(qn)
        for (k <- offs(x) until offs(x + 1)) if (alive(adj(k))) delete(adj(k))
      }

      for (x <- 0 until n if deg(x) > 0) drop(x)
      cascade()
      if (q < 0 || deg(q) == 0) return None
      val c = component(alive, q)
      java.util.Arrays.fill(alive, false)
      c.foreach(alive(_) = true)

      var l = 0
      while (true) { // terminates: deleting every level leaves q without edges
        sn = 0
        for (k <- levelStart(l) until levelStart(l + 1) if alive(byLevel(k))) delete(byLevel(k))
        cascade()
        if (deg(q) == 0) {
          for (i <- 0 until sn) alive(deleted(i)) = true
          return Some(component(alive, q))
        }
        l += 1
      }
      None // unreachable
    }

    def peel(qGid: Long, alpha: Int, beta: Int): Option[Array[Int]] =
      peelFrom(Array.fill(m)(true), vertexOf(qGid), alpha, beta)

    /** Algorithm 5: inserts edge batches into G* in decreasing weight order,
      * keeping components in a union-find that carries per-component edge
      * and vertex counts and, for Lemma 8, the number of upper vertices of
      * degree >= alpha and lower vertices of degree >= beta. C* (q's
      * component) is peeled only when it changed and passes Lemma 7, Lemma 8
      * and the epsilon growth schedule; the first C* whose core keeps q
      * contains R, which SCS-Peel then extracts.
      */
    def expand(qGid: Long, alpha: Int, beta: Int, epsilon: Double): Option[Array[Int]] = {
      val q = vertexOf(qGid)
      if (q < 0) return None
      val (thU, thL) = (math.max(alpha, 1), math.max(beta, 1))
      val parent = Array.tabulate(n)(identity)
      val compE = new Array[Int](n)
      val compV = Array.fill(n)(1)
      val okU = new Array[Int](n)
      val okL = new Array[Int](n)
      val deg = new Array[Int](n)
      def find(x0: Int): Int = {
        var x = x0
        while (parent(x) != x) { parent(x) = parent(parent(x)); x = parent(x) }
        x
      }
      def touch(x: Int): Unit = {
        deg(x) += 1
        if (x < nU) { if (deg(x) == thU) okU(find(x)) += 1 }
        else if (deg(x) == thL) okL(find(x)) += 1
      }
      def insert(e: Int): Unit = {
        touch(src(e)); touch(dst(e))
        val (a, b) = (find(src(e)), find(dst(e)))
        if (a == b) compE(a) += 1
        else {
          val (big, small) = if (compV(a) >= compV(b)) (a, b) else (b, a)
          parent(small) = big
          compE(big) += compE(small) + 1
          compV(big) += compV(small)
          okU(big) += okU(small)
          okL(big) += okL(small)
        }
      }

      var first = m // G* is byLevel(first until m)
      var preSize = 0L
      var lastSeen = -1
      def check(force: Boolean): Option[Array[Int]] = {
        if (deg(q) == 0) return None
        val r = find(q)
        val size = compE(r)
        if (size == lastSeen && !force) return None // C* unchanged since last look
        lastSeen = size
        if (!force) {
          // Lemma 7: |E(C*)| - |U(C*)| - |L(C*)| >= alpha*beta - alpha - beta.
          if (size.toLong - compV(r) < alpha.toLong * beta - alpha - beta) return None
          // Lemma 8: >= beta upper vertices of degree >= alpha, >= alpha lower
          // vertices of degree >= beta, and q meets its own side's bound.
          val qOk = deg(q) >= (if (q < nU) thU else thL)
          if (!(okU(r) >= beta && okL(r) >= alpha && qOk)) return None
          if (size < preSize * epsilon) return None
        }
        preSize = size
        val cStar = new Array[Boolean](m)
        for (k <- first until m if find(src(byLevel(k))) == r) cStar(byLevel(k)) = true
        peelFrom(cStar, q, alpha, beta)
      }

      for (l <- nLevels - 1 to 0 by -1) {
        for (k <- levelStart(l) until levelStart(l + 1)) insert(byLevel(k))
        first = levelStart(l)
        val r = check(force = false)
        if (r.isDefined) return r
      }
      check(force = true) // all edges inserted: the final check is exact
    }
  }
}
