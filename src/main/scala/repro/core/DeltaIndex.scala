package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.graph.{Bfs, Bipartite, Offsets}

/** The degeneracy-bounded index I_delta (paper §III-B, Algorithm 3).
  *
  * For each tau in [1, delta]:
  *   - part "a" (I_delta^alpha): adjacency of every vertex in the
  *     (tau,tau)-core, keeping neighbors with alpha-offset s_a(·,tau) >= tau;
  *   - part "b" (I_delta^beta): adjacency of every vertex in the
  *     (tau,tau)-core, keeping neighbors with beta-offset s_b(·,tau) > tau.
  *
  * The paper stores sorted adjacency lists and stops reading a list at the
  * first neighbor below the bound. The dataflow rendition stores flat entry
  * rows `(part, tau, src, dst, w, off)` (the edge's raw ids are `src >> 1`
  * and `dst >> 1`), and the sort + early exit becomes the filter
  * `off >= bound` on the (part, tau) slice. A query scans that whole
  * filtered slice once, when its BFS builds adjacency lists from it; each BFS
  * round then reads only the frontier's entries. The entries into q carry
  * q's own offset, so the slice also tells whether q is in the core.
  */
final case class DeltaIndex(
    entries: DataFrame,       // part, tau, src, dst, w, off
    vertexOffsets: DataFrame, // part, tau, gid, off
    delta: Int) {

  /** Number of stored adjacency entries (the index-size metric of Fig 11). */
  def entryCount: Long = entries.count()
}

object DeltaIndex {
  import Bipartite._

  /** Algorithm 3: compute delta, then all alpha- and beta-offsets for tau
    * in [1, delta] (one vectorized fixpoint for both parts, not one per tau
    * and part), and materialize both index parts with a single explode.
    */
  def build(edges0: DataFrame): DeltaIndex = {
    val edges = cp(normalize(edges0))
    val delta = Offsets.degeneracy(edges)
    val off = Offsets.alphaBetaOffsetsAll(edges, delta) // gid, offs: array<int> of 2 * delta
    def keep(pos: Column, srcOff: Column, dstOff: Column): Column = {
      val tau = tauAt(pos, delta)
      srcOff >= tau && when(pos < delta, dstOff >= tau).otherwise(dstOff > tau)
    }
    DeltaIndex(cp(entriesFor(sym(edges), off, partAndTau(delta), keep)),
      cp(vertexFor(off, partAndTau(delta))), delta)
  }

  /** Where position `pos` of a joint offsets array lands: part "a" for the
    * first `taus` positions, "b" for the rest, and its tau.
    */
  private[core] def partAndTau(taus: Int)(pos: Column): Seq[Column] =
    Seq(when(pos < taus, lit("a")).otherwise(lit("b")).as("part"), tauAt(pos, taus).as("tau"))

  private def tauAt(pos: Column, taus: Int): Column = (pos % taus + 1).cast("int")

  /** Index entries of the symmetric adjacency `adj` from per-vertex offset
    * arrays `off` (gid, offs): one row per (directed edge, array position)
    * where `keep(pos, srcOff, dstOff)` holds, keyed by `keys(pos)`, carrying
    * the neighbor's offset as `off`. Algorithms 1 and 3 differ only in `keep`.
    */
  private[core] def entriesFor(adj: DataFrame, off: DataFrame, keys: Column => Seq[Column],
                               keep: (Column, Column, Column) => Column): DataFrame = {
    val srcO = off.select(col("gid").as("src"), col("offs").as("srcOffs"))
    val dstO = off.select(col("gid").as("dst"), col("offs").as("dstOffs"))
    adj.join(srcO, Seq("src")).join(dstO, Seq("dst"))
      .select(col("src"), col("dst"), col(W),
        posexplode(arrays_zip(col("srcOffs"), col("dstOffs"))).as(Seq("pos", "z")))
      .filter(keep(col("pos"), col("z.srcOffs"), col("z.dstOffs")))
      .select(keys(col("pos")) ++ Seq(col("src"), col("dst"), col(W), col("z.dstOffs").as("off")): _*)
  }

  /** Per-(position, vertex) offset rows keyed by `keys(pos)`: (keys, gid, off). */
  private[core] def vertexFor(off: DataFrame, keys: Column => Seq[Column]): DataFrame =
    off.select(col("gid"), posexplode(col("offs")).as(Seq("pos", "off")))
      .select(keys(col("pos")) ++ Seq(col("gid"), col("off")): _*)

  /** The index is purely structural — offsets ignore weights — so an index
    * built on one weighting of a graph can be re-targeted to another by
    * re-attaching the new weight column (used by the Table III bench, which
    * compares four weight distributions over one topology).
    */
  def withWeights(idx: DeltaIndex, edges0: DataFrame): DeltaIndex = {
    val w2 = sym(edges0).withColumnRenamed(W, "w2")
    val entries = cp(idx.entries.drop(W).join(w2, Seq("src", "dst"))
      .select(col("part"), col("tau"), col("src"), col("dst"), col("w2").as(W), col("off")))
    DeltaIndex(entries, idx.vertexOffsets, idx.delta)
  }

  /** Q_opt (Algorithm 2 over I_delta): dispatch on min(alpha, beta) — use
    * part "a" at tau = alpha when alpha <= beta (filter neighbor alpha-offset
    * >= beta), else part "b" at tau = beta (filter neighbor beta-offset >=
    * alpha). By Lemma 4 a nonempty core has min(alpha, beta) <= delta, and
    * the index has no entry at tau > delta. Returns the canonical edges of
    * C_{alpha,beta}(q).
    */
  def query(idx: DeltaIndex, qGid: Long, alpha: Int, beta: Int): DataFrame = {
    requireAlphaBeta(alpha, beta)
    val (part, tau, bound) = dispatch(alpha, beta)
    sliceQuery(idx.entries.filter(col("part") === part), qGid, tau, bound)
  }

  /** The (part, tau, bound) that holds C_{alpha,beta}: tau = min(alpha, beta)
    * in the part of the smaller parameter, bounded by the other one.
    */
  private[core] def dispatch(alpha: Int, beta: Int): (String, Int, Int) =
    if (alpha <= beta) ("a", alpha, beta) else ("b", beta, alpha)

  /** Algorithm 2 over one index part: the BFS from q over the entries at tau
    * with off >= bound. An entry into q carries q's own offset, so the slice
    * has one exactly when q is in the core, and the BFS is empty otherwise.
    */
  private[core] def sliceQuery(entries: DataFrame, qGid: Long, tau: Int, bound: Int): DataFrame =
    Bfs.subgraphFrom(entries.filter(col("tau") === tau && col("off") >= bound), qGid)
}
