package repro.core

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, Row}
import repro.graph.Bipartite

/** Significant (alpha,beta)-community search algorithms (paper §IV).
  *
  * The two-step framework guarantees R ⊆ C_{alpha,beta}(q), and C is far
  * smaller than G (Table I), so the SCS phase runs on the driver: each call
  * collects its input once, maps the vertices to dense ints and runs the
  * paper's pointer-based algorithms over arrays. All return Some(edges of R)
  * — the unique connected subgraph containing q that satisfies the degree
  * constraints and maximizes the minimum edge weight — or None when q is not
  * in the (alpha,beta)-core of the input. R is a local DataFrame with the
  * canonical schema (u: long, v: long, w: double). A local input, such as
  * the community [[DeltaIndex.query]] returns, is read without a Spark job.
  */
object Scs {
  import Bipartite._

  /** SCS-Peel (Algorithm 4) over `community` = C_{alpha,beta}(q). Any edge
    * set is accepted: it is peeled to its (alpha,beta)-core and cut to q's
    * component first.
    */
  def peel(community: DataFrame, qGid: Long, alpha: Int, beta: Int): Option[DataFrame] =
    onDriver(community, alpha, beta)(_.peel(qGid, alpha, beta))

  /** SCS-Expand (Algorithm 5): expansion restricted to the
    * (alpha,beta)-community, checking at most when C* grew by `epsilon`.
    */
  def expand(community: DataFrame, qGid: Long, alpha: Int, beta: Int,
             epsilon: Double = 2.0): Option[DataFrame] =
    onDriver(community, alpha, beta)(_.expand(qGid, alpha, beta, epsilon))

  /** SCS-Baseline: expansion over the whole graph — no two-step framework, so
    * the search space is q's component of G rather than C_{alpha,beta}(q).
    */
  def baseline(allEdges: DataFrame, qGid: Long, alpha: Int, beta: Int): Option[DataFrame] =
    onDriver(allEdges, alpha, beta)(_.expand(qGid, alpha, beta, 2.0))

  /** Collects `edges` as canonical rows, rejecting inputs above the driver
    * limit for `heapBytes` before they can exhaust the heap.
    */
  private[core] def collectCapped(edges: DataFrame, heapBytes: Long): Array[Row] = {
    val cap = maxDriverEdges(heapBytes)
    val rows = normalize(edges).limit(cap + 1).collect()
    if (rows.length > cap)
      throw new IllegalArgumentException(s"SCS input has ${edges.count()} edges; " +
        s"the driver limit for a $heapBytes-byte heap is $cap edges")
    rows
  }

  private def onDriver(edges: DataFrame, alpha: Int, beta: Int)(
      run: DriverGraph => Option[Array[Int]]): Option[DataFrame] = {
    requireAlphaBeta(alpha, beta)
    val rows = collectCapped(edges, Runtime.getRuntime.maxMemory)
    run(new DriverGraph(rows)).map(r => localEdges(edges.sparkSession, r.toSeq.map(rows(_))))
  }

  /** An edge list in array form. Upper vertices are 0 until nU, lower
    * vertices nU until n; edge e joins src(e) to dst(e) with weight w(e);
    * adj holds each vertex's edge ids (CSR); byLevel lists the edge ids in
    * ascending weight, level l spanning levelStart(l) until levelStart(l+1).
    * Results are arrays of edge ids, i.e. indexes into the collected rows.
    */
  private final class DriverGraph(rows: Array[Row]) {
    private val m = rows.length
    private val upper = mutable.LongMap.empty[Int]
    private val lower = mutable.LongMap.empty[Int]
    private val src = rows.map(r => upper.getOrElseUpdate(r.getLong(0), upper.size))
    private val nU = upper.size
    private val dst = rows.map(r => nU + lower.getOrElseUpdate(r.getLong(1), lower.size))
    private val n = nU + lower.size
    private val w = rows.map(_.getDouble(2))

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
      if (isUGid(qGid)) upper.getOrElse(qGid >> 1, -1)
      else lower.get(qGid >> 1).fold(-1)(_ + nU)

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
