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
  * The paper stores sorted adjacency lists with early termination; the
  * dataflow rendition stores flat entry rows `(part, tau, src, dst, u, v, w,
  * off)` and the sort + early-exit becomes the predicate `off >= bound`
  * applied inside the BFS join, so only edges of the answer are touched.
  */
final case class DeltaIndex(
    entries: DataFrame,       // part, tau, src, dst, u, v, w, off
    vertexOffsets: DataFrame, // part, tau, gid, off
    delta: Int) {

  /** Number of stored adjacency entries (the index-size metric of Fig 11). */
  def entryCount: Long = entries.count()

  /** s_a(gid, tau) — 0 when the vertex is outside the (tau,1)-core. */
  def alphaOffsetOf(gid: Long, tau: Int): Int =
    offsetOf("a", gid, tau)

  /** s_b(gid, tau) — 0 when the vertex is outside the (1,tau)-core. */
  def betaOffsetOf(gid: Long, tau: Int): Int =
    offsetOf("b", gid, tau)

  private def offsetOf(part: String, gid: Long, tau: Int): Int = {
    val r = vertexOffsets
      .filter(col("part") === part && col("tau") === tau && col("gid") === gid)
      .select("off").collect()
    if (r.isEmpty) 0 else r(0).getInt(0)
  }
}

object DeltaIndex {
  import Bipartite._

  /** Algorithm 3: compute delta, then all alpha- and beta-offsets for tau
    * in [1, delta] (one vectorized fixpoint for both parts, not one per tau
    * and part), and materialize both index parts with a single explode.
    */
  def build(edges0: DataFrame): DeltaIndex = {
    val spark = edges0.sparkSession
    val edges = cp(normalize(edges0))
    val delta = Offsets.degeneracy(edges)
    if (delta == 0) return DeltaIndex(emptyEntries(spark), emptyVertexOffsets(spark), 0)
    val off = Offsets.alphaBetaOffsetsAll(edges, delta) // gid, offs: array<int> of 2 * delta
    DeltaIndex(cp(entriesFor(sym(edges), off, delta)), cp(vertexFor(off, delta)), delta)
  }

  /** The part ("a" for the first `taus` positions of a joint offsets array,
    * "b" for the rest) and tau of array position `pos`.
    */
  private def partAndTau(pos: Column, taus: Int): (Column, Column) =
    (when(pos < taus, lit("a")).otherwise(lit("b")), (pos % taus + 1).cast("int"))

  /** Index entries of both parts from joint offsets: per (directed edge,
    * tau) keep rows whose owner is in the (tau,tau)-core (offset >= tau)
    * and whose neighbor qualifies (>= tau for part a, > tau for part b).
    */
  private def entriesFor(adj: DataFrame, off: DataFrame, taus: Int): DataFrame = {
    val srcO = off.select(col("gid").as("src"), col("offs").as("srcOffs"))
    val dstO = off.select(col("gid").as("dst"), col("offs").as("dstOffs"))
    val ex = adj.join(srcO, Seq("src")).join(dstO, Seq("dst"))
      .select(col("src"), col("dst"), col(U), col(V), col(W),
        posexplode(arrays_zip(col("srcOffs"), col("dstOffs"))).as(Seq("pos", "z")))
    val (part, tau) = partAndTau(col("pos"), taus)
    val srcOff = col("z.srcOffs")
    val dstOff = col("z.dstOffs")
    val dstCond = when(col("pos") < taus, dstOff >= tau).otherwise(dstOff > tau)
    ex.filter(srcOff >= tau && dstCond)
      .select(part.as("part"), tau.as("tau"),
        col("src"), col("dst"), col(U), col(V), col(W), dstOff.as("off"))
  }

  /** Per-(part, tau, vertex) offset rows from joint offsets. */
  private[core] def vertexFor(off: DataFrame, taus: Int): DataFrame = {
    val (part, tau) = partAndTau(col("pos"), taus)
    off.select(col("gid"), posexplode(col("offs")).as(Seq("pos", "off")))
      .select(part.as("part"), tau.as("tau"), col("gid"), col("off"))
  }

  /** The index is purely structural — offsets ignore weights — so an index
    * built on one weighting of a graph can be re-targeted to another by
    * re-attaching the new weight column (used by the Table III bench, which
    * compares four weight distributions over one topology).
    */
  def withWeights(idx: DeltaIndex, edges0: DataFrame): DeltaIndex = {
    val w2 = normalize(edges0).select(col(U), col(V), col(W).as("w2"))
    val entries = cp(idx.entries.drop(W).join(w2, Seq(U, V))
      .select(col("part"), col("tau"), col("src"), col("dst"),
        col(U), col(V), col("w2").as(W), col("off")))
    DeltaIndex(entries, idx.vertexOffsets, idx.delta)
  }

  /** Q_opt (Algorithm 2 over I_delta): dispatch on min(alpha, beta) — use
    * part "a" at tau = alpha when alpha <= beta (filter neighbor alpha-offset
    * >= beta), else part "b" at tau = beta (filter neighbor beta-offset >=
    * alpha). By Lemma 4 a nonempty core has min(alpha, beta) <= delta.
    * Returns the canonical edges of C_{alpha,beta}(q).
    */
  def query(idx: DeltaIndex, qGid: Long, alpha: Int, beta: Int): DataFrame = {
    requireAlphaBeta(alpha, beta)
    val spark = idx.entries.sparkSession
    val (part, tau, bound) =
      if (alpha <= beta) ("a", alpha, beta) else ("b", beta, alpha)
    if (tau > idx.delta) return emptyEdges(spark)
    val qOff =
      if (part == "a") idx.alphaOffsetOf(qGid, tau) else idx.betaOffsetOf(qGid, tau)
    if (qOff < bound) return emptyEdges(spark)
    val adj = idx.entries
      .filter(col("part") === part && col("tau") === tau && col("off") >= bound)
      .select(col("src"), col("dst"), col(U), col(V), col(W))
    Bfs.subgraphFrom(adj, qGid)
  }

  private def emptyEntries(spark: org.apache.spark.sql.SparkSession): DataFrame = {
    import org.apache.spark.sql.types._
    spark.createDataFrame(spark.sparkContext.emptyRDD[org.apache.spark.sql.Row],
      StructType(Seq(
        StructField("part", StringType), StructField("tau", IntegerType),
        StructField("src", LongType), StructField("dst", LongType),
        StructField(U, LongType), StructField(V, LongType), StructField(W, DoubleType),
        StructField("off", IntegerType))))
  }

  private def emptyVertexOffsets(spark: org.apache.spark.sql.SparkSession): DataFrame = {
    import org.apache.spark.sql.types._
    spark.createDataFrame(spark.sparkContext.emptyRDD[org.apache.spark.sql.Row],
      StructType(Seq(
        StructField("part", StringType), StructField("tau", IntegerType),
        StructField("gid", LongType), StructField("off", IntegerType))))
  }
}
