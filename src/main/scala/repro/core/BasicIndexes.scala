package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.graph.{Bipartite, Offsets}

/** The basic indexes I_bs^alpha / I_bs^beta (paper §III-A, Algorithm 1).
  *
  * For each tau in [1, cap]: the adjacency of every vertex in the (tau,1)-core
  * (resp. (1,tau)-core), annotated with neighbor offsets, neighbors with
  * offset 0 removed. Space is O(alpha_max * m) / O(beta_max * m) — the blowup
  * I_delta fixes. `cap` bounds materialization (the paper likewise could not
  * finish building these on large datasets and reports expected sizes; exact
  * full entry counts come from [[IndexSizes]]).
  */
final case class BasicIndex(
    entries: DataFrame, // tau, src, dst, w, off (raw ids src >> 1, dst >> 1)
    isAlpha: Boolean) {
  def entryCount: Long = entries.count()
}

object BasicIndexes {
  import Bipartite._

  /** Build I_bs^alpha (isAlpha = true) or I_bs^beta up to tau <= cap. Index
    * entries keep every neighbor in the (tau,1)-core (resp. (1,tau)-core).
    */
  def build(edges0: DataFrame, isAlpha: Boolean, cap0: Int = -1): BasicIndex = {
    val edges = cp(normalize(edges0))
    val cap =
      if (cap0 > 0) cap0
      else if (isAlpha) alphaMax(edges)
      else betaMax(edges)
    val off =
      if (isAlpha) Offsets.alphaOffsetsAll(edges, cap)
      else Offsets.betaOffsetsAll(edges, cap)
    val byTau = (pos: Column) => Seq((pos + 1).cast("int").as("tau"))
    val entries = DeltaIndex.entriesFor(sym(edges), off, byTau, (_, srcOff, dstOff) => srcOff >= 1 && dstOff >= 1)
    BasicIndex(cp(entries), isAlpha)
  }

  /** Query C_{alpha,beta}(q) from a basic index: for I_bs^alpha, BFS over the
    * tau = alpha entries keeping neighbors with offset >= beta (Algorithm 2);
    * for I_bs^beta, tau = beta keeping offset >= alpha.
    */
  def query(idx: BasicIndex, qGid: Long, alpha: Int, beta: Int): DataFrame = {
    requireAlphaBeta(alpha, beta)
    val (tau, bound) = if (idx.isAlpha) (alpha, beta) else (beta, alpha)
    DeltaIndex.sliceQuery(idx.entries, qGid, tau, bound)
  }
}

/** Exact analytic entry counts of the FULL indexes, mirroring the paper's
  * "expected size" reporting for indexes too large to materialize. Derived in
  * DESIGN.md §3: for I_bs^alpha every edge (u,v) contributes 2·deg(u) directed
  * entries (one per alpha in [1, deg(u)] per direction), so the total is
  * 2·Σ_{u∈U} deg(u)^2; symmetrically 2·Σ_{v∈L} deg(v)^2 for I_bs^beta. The
  * full bicore index holds one entry per (vertex, tau) with nonzero offset:
  * u appears on the alpha side for alpha <= deg(u), v for alpha <=
  * max_{u∈N(v)} deg(u), plus the symmetric beta side.
  */
object IndexSizes {
  import Bipartite._

  def basicAlphaFullEntries(edges0: DataFrame): Long = {
    val d = degreesU(normalize(edges0))
    2L * d.agg(sum(col("deg").cast("long") * col("deg"))).head.getLong(0)
  }

  def basicBetaFullEntries(edges0: DataFrame): Long = {
    val d = degreesL(normalize(edges0))
    2L * d.agg(sum(col("deg").cast("long") * col("deg"))).head.getLong(0)
  }

  def bicoreFullEntries(edges0: DataFrame): Long = {
    val edges = normalize(edges0)
    val dU = degreesU(edges)
    val dL = degreesL(edges)
    val sumDegU = dU.agg(sum(col("deg").cast("long"))).head.getLong(0)
    val sumDegL = dL.agg(sum(col("deg").cast("long"))).head.getLong(0)
    // v's alpha-side range: max degree among its upper neighbors.
    val vAlpha = edges.join(dU, Seq(U))
      .groupBy(V).agg(max("deg").as("m"))
      .agg(sum(col("m").cast("long"))).head.getLong(0)
    // u's beta-side range: max degree among its lower neighbors.
    val uBeta = edges.join(dL, Seq(V))
      .groupBy(U).agg(max("deg").as("m"))
      .agg(sum(col("m").cast("long"))).head.getLong(0)
    sumDegU + vAlpha + sumDegL + uBeta
  }
}
