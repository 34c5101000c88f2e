package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.Bipartite
import repro.local.LocalBipartite

/** Shared hand-built graphs and Spark<->local converters for the test suites. */
object TestGraphs {

  def toDF(spark: SparkSession, edges: Seq[(Long, Long, Double)]): DataFrame = {
    import spark.implicits._
    edges.toDF(Bipartite.U, Bipartite.V, Bipartite.W)
  }

  def edgeSet(df: DataFrame): Set[(Long, Long, Double)] =
    Bipartite.collectEdges(df).toSet

  def toLocal(df: DataFrame): LocalBipartite =
    LocalBipartite.fromEdges(Bipartite.collectEdges(df))

  /** Membership test: is the gid-encoded vertex present in the edge set? */
  def containsGid(edges: DataFrame, gid: Long): Boolean = {
    val side = if (Bipartite.isUGid(gid)) Bipartite.U else Bipartite.V
    !Bipartite.normalize(edges).filter(col(side) === (gid >> 1)).isEmpty
  }

  /** Miniature of the paper's Figure 2 running example: a hub lower vertex
    * v1 with many degree-1 pendants, and a small dense block. The significant
    * (2,2)-community of u3 is exactly {(u3,v1),(u3,v2),(u4,v1),(u4,v2)}.
    */
  val fig2: Vector[(Long, Long, Double)] = Vector(
    (1L, 1L, 5.0), (1L, 2L, 1.0), (1L, 3L, 2.0), (1L, 4L, 1.0),
    (2L, 1L, 2.0), (2L, 2L, 2.0), (2L, 3L, 3.0),
    (3L, 1L, 5.0), (3L, 2L, 5.0), (3L, 3L, 1.0),
    (4L, 1L, 5.0), (4L, 2L, 5.0),
  ) ++ (5L to 20L).map(u => (u, 1L, 1.0)).toVector

  /** Expected significant (2,2)-community of u3 in [[fig2]]. */
  val fig2ScU3: Set[(Long, Long, Double)] =
    Set((3L, 1L, 5.0), (3L, 2L, 5.0), (4L, 1L, 5.0), (4L, 2L, 5.0))

  /** Complete biclique K_{3,3} with uniform weight plus a pendant edge. */
  val k33Pendant: Vector[(Long, Long, Double)] =
    (for { u <- 1L to 3L; v <- 1L to 3L } yield (u, v, 2.0)).toVector :+ (4L, 1L, 1.0)

  /** Two K_{2,2} blocks bridged by a single edge, distinct weights. */
  val twoBlocks: Vector[(Long, Long, Double)] = Vector(
    (1L, 1L, 4.0), (1L, 2L, 4.0), (2L, 1L, 4.0), (2L, 2L, 3.0),
    (3L, 3L, 2.0), (3L, 4L, 2.0), (4L, 3L, 2.0), (4L, 4L, 2.0),
    (2L, 3L, 1.0), // bridge
  )

  /** The path u1-v1-u2-...-vn-u(n+1) with weights 1..2n along it; u1 has
    * eccentricity 2n.
    */
  def pathOf(n: Int): Vector[(Long, Long, Double)] =
    (1L to n.toLong).flatMap(i => Seq((i, i, 2.0 * i - 1), (i + 1, i, 2.0 * i))).toVector

  /** `edges` with every upper and lower id negated. */
  def negated(edges: Vector[(Long, Long, Double)]): Vector[(Long, Long, Double)] =
    edges.map { case (u, v, w) => (-u, -v, w) }

  /** A path u1-v1-u2-v2-u3 (tests long propagation chains). */
  val path: Vector[(Long, Long, Double)] = pathOf(2)

  /** Star: one upper hub with 6 lower pendants. */
  val star: Vector[(Long, Long, Double)] =
    (1L to 6L).map(v => (1L, v, v.toDouble)).toVector

  /** Deterministic pseudo-random bipartite graph (pure Scala, no Spark). */
  def random(nU: Int, nL: Int, prob: Double, seed: Long,
             maxW: Int = 4): Vector[(Long, Long, Double)] = {
    val rnd = new scala.util.Random(seed)
    (for {
      u <- 1 to nU
      v <- 1 to nL
      if rnd.nextDouble() < prob
    } yield (u.toLong, v.toLong, (rnd.nextInt(maxW) + 1).toDouble)).toVector
  }

  /** All distinct (alpha, beta) pairs worth testing on a small graph. */
  def paramGrid(maxA: Int, maxB: Int): Seq[(Int, Int)] =
    for { a <- 1 to maxA; b <- 1 to maxB } yield (a, b)
}
