package repro.local

import scala.collection.mutable

/** Exact sequential bipartite-graph algorithms.
  *
  * This package is the faithful, in-memory rendition of the paper's C++
  * implementation (sorted adjacency, queue-based cascade peeling). It serves
  * two purposes: (1) the correctness oracle every Spark dataflow module is
  * tested against, and (2) the "author testbed" analog for sanity-checking
  * benchmark shapes. `LocalScs.peel`/`expand` are the exception: they are
  * the SCS engine `core.Scs` runs, checked against `LocalScs.semantic`.
  *
  * Vertices are gid-encoded: an upper vertex `u` is `2*u`, a lower vertex `v`
  * is `2*v + 1`, so both layers live in one id space (as in the Spark side).
  */
final case class LocalBipartite(edges: Vector[(Long, Long, Double)]) {
  import LocalBipartite._

  /** Adjacency over gids; each entry is (neighbor gid, weight). */
  lazy val adj: Map[Long, Vector[(Long, Double)]] = {
    val m = mutable.HashMap.empty[Long, mutable.ArrayBuffer[(Long, Double)]]
    edges.foreach { case (u, v, w) =>
      m.getOrElseUpdate(gidU(u), mutable.ArrayBuffer.empty) += ((gidL(v), w))
      m.getOrElseUpdate(gidL(v), mutable.ArrayBuffer.empty) += ((gidU(u), w))
    }
    m.view.mapValues(_.toVector).toMap
  }

  def vertices: Set[Long] = adj.keySet
  def upperVertices: Set[Long] = vertices.filter(isU)
  def lowerVertices: Set[Long] = vertices.filterNot(isU)
  def degree(gid: Long): Int = adj.get(gid).map(_.size).getOrElse(0)
  def nEdges: Int = edges.size
  def isEmpty: Boolean = edges.isEmpty
  def contains(gid: Long): Boolean = adj.contains(gid)

  /** Keep only edges whose endpoints are both in `keep`. */
  def induced(keep: Set[Long]): LocalBipartite =
    LocalBipartite(edges.filter { case (u, v, _) => keep(gidU(u)) && keep(gidL(v)) })

  def filterWeight(minW: Double): LocalBipartite =
    LocalBipartite(edges.filter(_._3 >= minW))

  /** The (alpha, beta)-core by definition: iterated removal to fixpoint. */
  def core(alpha: Int, beta: Int): LocalBipartite = {
    var g = this
    var changed = true
    while (changed) {
      val bad = g.vertices.filter { gid =>
        if (isU(gid)) g.degree(gid) < alpha else g.degree(gid) < beta
      }
      changed = bad.nonEmpty
      if (changed) g = g.induced(g.vertices -- bad)
    }
    g
  }

  /** Connected-component labels: every vertex maps to the min gid reachable. */
  def components: Map[Long, Long] = {
    val label = mutable.HashMap.empty[Long, Long]
    for (start <- vertices if !label.contains(start)) {
      val queue = mutable.Queue(start)
      val seen = mutable.HashSet(start)
      while (queue.nonEmpty) {
        val x = queue.dequeue()
        adj(x).foreach { case (y, _) => if (seen.add(y)) queue.enqueue(y) }
      }
      val root = seen.min
      seen.foreach(g => label(g) = root)
    }
    label.toMap
  }

  /** Edges of the connected component containing gid (empty if absent). */
  def componentOf(gid: Long): LocalBipartite = {
    if (!contains(gid)) return LocalBipartite(Vector.empty)
    val seen = mutable.HashSet(gid)
    val queue = mutable.Queue(gid)
    while (queue.nonEmpty) {
      val x = queue.dequeue()
      adj(x).foreach { case (y, _) => if (seen.add(y)) queue.enqueue(y) }
    }
    induced(seen.toSet)
  }

  /** The (alpha, beta)-community of q: q's component in the (alpha,beta)-core. */
  def community(qGid: Long, alpha: Int, beta: Int): LocalBipartite =
    core(alpha, beta).componentOf(qGid)

  /** alpha-offsets s_a(x, alpha) for every vertex, by iterated peeling
    * (definitional): the max beta such that x is in the (alpha,beta)-core.
    * Vertices absent from the (alpha,1)-core get offset 0 and are omitted.
    */
  def alphaOffsets(alpha: Int): Map[Long, Int] = {
    val off = mutable.HashMap.empty[Long, Int]
    var g = core(alpha, 1)
    var beta = 1
    while (!g.isEmpty) {
      g.vertices.foreach(x => off(x) = beta)
      beta += 1
      g = g.core(alpha, beta)
    }
    off.toMap
  }

  /** beta-offsets s_b(x, beta): the max alpha with x in the (alpha,beta)-core. */
  def betaOffsets(beta: Int): Map[Long, Int] = {
    val off = mutable.HashMap.empty[Long, Int]
    var g = core(1, beta)
    var alpha = 1
    while (!g.isEmpty) {
      g.vertices.foreach(x => off(x) = alpha)
      alpha += 1
      g = g.core(alpha, beta)
    }
    off.toMap
  }

  /** Degeneracy: the largest tau with a nonempty (tau,tau)-core. */
  def degeneracy: Int = {
    var tau = 0
    var g = this
    var continue = g.nEdges > 0
    while (continue) {
      val next = g.core(tau + 1, tau + 1)
      if (next.isEmpty) continue = false
      else { tau += 1; g = next }
    }
    tau
  }

  /** Butterfly (2x2-biclique) support of every edge. */
  def butterflySupport: Map[(Long, Long), Long] = {
    val nbrU = mutable.HashMap.empty[Long, Set[Long]] // u -> set of v
    val nbrL = mutable.HashMap.empty[Long, Set[Long]] // v -> set of u
    edges.foreach { case (u, v, _) =>
      nbrU(u) = nbrU.getOrElse(u, Set.empty) + v
      nbrL(v) = nbrL.getOrElse(v, Set.empty) + u
    }
    edges.map { case (u, v, _) =>
      val sup = nbrU(u).iterator.filter(_ != v).map { v2 =>
        (nbrL(v) & nbrL(v2)).size - 1L // subtract u itself
      }.sum
      ((u, v), sup)
    }.toMap
  }

  /** k-bitruss: maximal subgraph where every edge lies in >= k butterflies. */
  def bitruss(k: Long): LocalBipartite = {
    var g = this
    var changed = true
    while (changed && !g.isEmpty) {
      val sup = g.butterflySupport
      val keep = g.edges.filter { case (u, v, _) => sup((u, v)) >= k }
      changed = keep.size != g.nEdges
      g = LocalBipartite(keep)
    }
    g
  }
}

object LocalBipartite {
  def gidU(u: Long): Long = 2L * u
  def gidL(v: Long): Long = 2L * v + 1L
  def isU(gid: Long): Boolean = gid % 2 == 0
  def rawId(gid: Long): Long = gid >> 1

  def fromEdges(es: Seq[(Long, Long, Double)]): LocalBipartite =
    LocalBipartite(es.toVector)
}
