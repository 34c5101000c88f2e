package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import repro.graph.Bipartite
import repro.local.{LocalBipartite, LocalScs}

/** Significant (alpha,beta)-community search algorithms (paper §IV) on
  * Spark edge sets.
  *
  * The two-step framework guarantees R ⊆ C_{alpha,beta}(q), and C is far
  * smaller than G (Table I), so the SCS phase runs on the driver: each call
  * collects its input once and runs the array engine of [[LocalScs]]. All
  * return Some(edges of R) — the unique connected subgraph containing q that
  * satisfies the degree constraints and maximizes the minimum edge weight —
  * or None when q is not in the (alpha,beta)-core of the input. R is a local
  * DataFrame with the canonical schema (u: long, v: long, w: double). A
  * local input, such as the community [[DeltaIndex.query]] returns, is read
  * without a Spark job. NaN weights and duplicate edges are rejected.
  */
object Scs {
  import Bipartite._

  /** SCS-Peel (Algorithm 4) over `community` = C_{alpha,beta}(q). Any edge
    * set is accepted: it is peeled to its (alpha,beta)-core and cut to q's
    * component first.
    */
  def peel(community: DataFrame, qGid: Long, alpha: Int, beta: Int): Option[DataFrame] =
    onDriver(community, alpha, beta)(LocalScs.peel(_, qGid, alpha, beta))

  /** SCS-Expand (Algorithm 5): expansion restricted to the
    * (alpha,beta)-community, checking at most when C* grew by `epsilon`.
    */
  def expand(community: DataFrame, qGid: Long, alpha: Int, beta: Int,
             epsilon: Double = 2.0): Option[DataFrame] =
    onDriver(community, alpha, beta)(LocalScs.expand(_, qGid, alpha, beta, epsilon))

  /** SCS-Baseline: expansion over the whole graph — no two-step framework, so
    * the search space is q's component of G rather than C_{alpha,beta}(q).
    */
  def baseline(allEdges: DataFrame, qGid: Long, alpha: Int, beta: Int): Option[DataFrame] =
    onDriver(allEdges, alpha, beta)(LocalScs.expand(_, qGid, alpha, beta))

  /** Collects `edges` as canonical (u, v, w) tuples, rejecting inputs above
    * the driver limit for `heapBytes` before they can exhaust the heap.
    */
  private[core] def collectCapped(edges: DataFrame, heapBytes: Long): Vector[(Long, Long, Double)] = {
    val cap = maxDriverEdges(heapBytes)
    val es = collectEdges(edges.limit(cap + 1))
    if (es.length > cap)
      throw new IllegalArgumentException(s"SCS input has ${edges.count()} edges; " +
        s"the driver limit for a $heapBytes-byte heap is $cap edges")
    es
  }

  private def onDriver(edges: DataFrame, alpha: Int, beta: Int)(
      run: LocalBipartite => Option[LocalBipartite]): Option[DataFrame] = {
    requireAlphaBeta(alpha, beta)
    run(LocalBipartite(collectCapped(edges, Runtime.getRuntime.maxMemory)))
      .map(r => localEdges(edges.sparkSession, r.edges.map(Row.fromTuple)))
  }
}
