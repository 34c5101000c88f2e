package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.{Bfs, Bipartite, Peel}

/** The three (alpha,beta)-community retrieval algorithms compared in Fig 8:
  *
  *  - Q_o   — online: peel the whole graph to the (alpha,beta)-core, then
  *            extract q's component (Ding et al. CIKM'17 [16]);
  *  - Q_v   — bicore-index based: vertex set from I_v, traversal over the
  *            original adjacency (Liu et al. WWW'19 [15]);
  *  - Q_opt — I_delta based, a BFS from q over one (part, tau,
  *            off >= bound) slice of the index (this paper): the slice is
  *            scanned once per query, its entries into q tell whether q is
  *            in the core, and each BFS round reads only the frontier's
  *            entries; no other table is read.
  *
  * All return the canonical edge list (u, v, w) of C_{alpha,beta}(q). Q_o
  * and the index builds reject null ids and duplicate edges.
  */
object CommunitySearch {
  import Bipartite._

  /** Q_o: full online peeling followed by component extraction. */
  def online(edges0: DataFrame, qGid: Long, alpha: Int, beta: Int): DataFrame = {
    requireAlphaBeta(alpha, beta)
    Bfs.subgraphFrom(sym(Peel.core(edges0, alpha, beta)), qGid)
  }

  /** Q_v: see [[BicoreIndex.query]]. */
  def viaBicore(edges: DataFrame, idx: BicoreIndex, qGid: Long, alpha: Int, beta: Int): DataFrame =
    BicoreIndex.query(edges, idx, qGid, alpha, beta)

  /** Q_opt: see [[DeltaIndex.query]]. */
  def viaDelta(idx: DeltaIndex, qGid: Long, alpha: Int, beta: Int): DataFrame =
    DeltaIndex.query(idx, qGid, alpha, beta)
}
