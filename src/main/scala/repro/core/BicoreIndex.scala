package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.{Bfs, Bipartite, Offsets}

/** The bicore index I_v (baseline, Liu et al. WWW'19 [15]).
  *
  * Stores vertex information only: for each vertex and each tau, the
  * alpha-offset s_a(·,tau) and beta-offset s_b(·,tau), from which the vertex
  * set V(R_{alpha,beta}) is read in optimal time. We materialize the slice
  * tau <= cap (cap defaults to the degeneracy, which by Lemma 4 covers every
  * nonempty query); the full-index entry count is reported analytically via
  * [[IndexSizes.bicoreFullEntries]].
  */
final case class BicoreIndex(vertexOffsets: DataFrame, cap: Int) {
  def entryCount: Long = vertexOffsets.filter(col("off") >= 1).count()
}

object BicoreIndex {
  import Bipartite._

  def build(edges0: DataFrame, cap0: Int = -1): BicoreIndex = {
    val edges = cp(normalize(edges0))
    val cap = if (cap0 > 0) cap0 else math.max(1, Offsets.degeneracy(edges))
    BicoreIndex(cp(DeltaIndex.vertexFor(Offsets.alphaBetaOffsetsAll(edges, cap), DeltaIndex.partAndTau(cap))), cap)
  }

  /** I_v's materialized slice is exactly I_delta's vertex-offset table —
    * reuse it when both indexes are needed (e.g. the Fig 8 query bench).
    */
  def fromDelta(idx: DeltaIndex): BicoreIndex =
    BicoreIndex(idx.vertexOffsets, idx.delta)

  /** Q_v: read V(R_{alpha,beta}) from the index, then BFS from q over the
    * ORIGINAL adjacency restricted to that vertex set. Unlike Q_opt this
    * touches the full adjacency of every visited vertex (the inefficiency
    * the paper's I_delta removes): here the restriction is a semi-join of
    * the whole edge list against the vertex set before the traversal. A q
    * outside the core is not in the set, so its BFS is empty after one round.
    */
  def query(edges0: DataFrame, idx: BicoreIndex, qGid: Long, alpha: Int, beta: Int): DataFrame = {
    requireAlphaBeta(alpha, beta)
    val (part, tau, bound) = DeltaIndex.dispatch(alpha, beta)
    val members = idx.vertexOffsets
      .filter(col("part") === part && col("tau") === tau && col("off") >= bound).select(col("gid"))
    // Q_v's extra work: every edge of G is examined against the vertex set.
    val coreEdges = normalize(edges0)
      .join(members.select(col("gid").as("ugid")), gidU(col(U)) === col("ugid"), "left_semi")
      .join(members.select(col("gid").as("lgid")), gidL(col(V)) === col("lgid"), "left_semi")
    Bfs.subgraphFrom(sym(coreEdges), qGid)
  }
}
