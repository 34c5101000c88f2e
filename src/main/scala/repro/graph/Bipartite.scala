package repro.graph

import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}

/** Schema and encoding conventions for weighted bipartite edge lists.
  *
  * An edge DataFrame has columns `u: long` (upper-layer id), `v: long`
  * (lower-layer id) and `w: double` (edge weight). Upper and lower ids are
  * independent namespaces; whenever both layers must share one id space
  * (offsets, components, BFS) we gid-encode: `gid(u) = 2u`, `gid(v) = 2v+1`.
  * A gid decodes as `gid >> 1` and is upper when `gid % 2 == 0`, which also
  * holds for negative ids (where `/ 2` and `% 2 == 1` do not).
  */
object Bipartite {
  val U = "u"
  val V = "v"
  val W = "w"

  def gidOfU(id: Long): Long = 2L * id
  def gidOfL(id: Long): Long = 2L * id + 1L
  def isUGid(gid: Long): Boolean = gid % 2 == 0

  def gidU(c: Column): Column = c * 2
  def gidL(c: Column): Column = c * 2 + 1

  /** Coerce an edge DataFrame to the canonical (u: long, v: long, w: double). */
  def normalize(edges: DataFrame): DataFrame =
    edges.select(col(U).cast("long").as(U), col(V).cast("long").as(V), col(W).cast("double").as(W))

  /** Rejects a null in the leading fields of a row leaving SQL, named
    * `names`: `getLong` and `getDouble` would read it as 0.
    */
  private[graph] def requireNonNull(r: InternalRow, names: String*): Unit =
    for (i <- names.indices if r.isNullAt(i))
      throw new IllegalArgumentException(s"an edge has a null ${names(i)}")

  /** Eagerly materialize and cut lineage — mandatory inside fixpoint loops,
    * otherwise every iteration replays the whole history of joins.
    */
  def cp(df: DataFrame): DataFrame = df.localCheckpoint()

  def degreesU(edges: DataFrame): DataFrame =
    edges.groupBy(U).agg(count(lit(1)).cast("int").as("deg"))

  def degreesL(edges: DataFrame): DataFrame =
    edges.groupBy(V).agg(count(lit(1)).cast("int").as("deg"))

  /** alpha_max: the largest alpha with a nonempty (alpha,1)-core — equals the
    * maximum upper-layer degree (peeling at beta=1 never cascades).
    */
  def alphaMax(edges: DataFrame): Int =
    if (edges.isEmpty) 0
    else degreesU(edges).agg(max("deg")).head.getInt(0)

  /** beta_max: the largest beta with a nonempty (1,beta)-core. */
  def betaMax(edges: DataFrame): Int =
    if (edges.isEmpty) 0
    else degreesL(edges).agg(max("deg")).head.getInt(0)

  /** Rejects community parameters outside the paper's alpha, beta >= 1. */
  def requireAlphaBeta(alpha: Int, beta: Int): Unit =
    require(alpha >= 1 && beta >= 1, s"alpha and beta must be >= 1, got alpha=$alpha, beta=$beta")

  final case class Stats(nU: Long, nL: Long, nE: Long)

  def stats(edges: DataFrame): Stats = {
    val r = edges
      .agg(countDistinct(col(U)).as("nu"), countDistinct(col(V)).as("nl"), count(lit(1)).as("ne"))
      .head
    Stats(r.getLong(0), r.getLong(1), r.getLong(2))
  }

  /** Symmetric gid-encoded adjacency (src, dst, w): one row per edge
    * direction. The edge (u, v, w) is the row whose src is upper, decoded as
    * (src >> 1, dst >> 1, w).
    */
  def sym(edges: DataFrame): DataFrame = {
    val e = normalize(edges)
    e.select(gidU(col(U)).as("src"), gidL(col(V)).as("dst"), col(W))
      .unionByName(e.select(gidL(col(V)).as("src"), gidU(col(U)).as("dst"), col(W)))
  }

  /** All vertex gids present in the edge set. */
  def vertexGids(edges: DataFrame): DataFrame = {
    val e = normalize(edges)
    e.select(gidU(col(U)).as("gid")).union(e.select(gidL(col(V)).as("gid"))).distinct()
  }

  /** Collect a (small) edge DataFrame as tuples — the bridge to `repro.local`
    * (the sequential oracle and the SCS engine) and the driver-side biclique
    * heuristic.
    */
  def collectEdges(edges: DataFrame): Vector[(Long, Long, Double)] =
    normalize(edges).collect().toVector.map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))

  /** Heap bytes budgeted per collected edge: the collected row (~100 B) and
    * its (u, v, w) tuple (~75 B), the transient serialized batch, and the
    * driver-side arrays or hash entries built over it (~300 B) fit about
    * twice over.
    */
  private val BytesPerEdge = 1024L

  /** Keeps `cap + 1` and the 2·cap adjacency slots inside Int. */
  private val MaxEdges = Int.MaxValue / 4

  /** The largest edge set held on a driver of `heapBytes`: the SCS input in
    * `core.Scs` and the answer edges a [[Bfs]] collects (a connected answer
    * has at most one more vertex than edges).
    */
  private[repro] def maxDriverEdges(heapBytes: Long): Int =
    math.max(1L, math.min(heapBytes / BytesPerEdge, MaxEdges.toLong)).toInt

  /** A local canonical edge DataFrame of driver-held rows (u, v, w): reading
    * it back, e.g. with `collect()`, runs no Spark job.
    */
  def localEdges(spark: SparkSession, rows: Seq[Row]): DataFrame =
    spark.createDataFrame(rows.asJava,
      StructType(Seq(StructField(U, LongType), StructField(V, LongType), StructField(W, DoubleType))))

  def emptyEdges(spark: SparkSession): DataFrame = localEdges(spark, Nil)
}
