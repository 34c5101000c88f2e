package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.graph.{Bipartite, Butterflies, ConnectedComponents}
import repro.local.LocalBipartite

/** Community models compared against SC in the effectiveness study
  * (Fig 6 / Table II): the (alpha,beta)-core community, k-bitruss community
  * (k = alpha*beta, [18]), a maximal-biclique community ([20]) and C_{4*}
  * (the induced subgraph of items with average rating >= 4).
  */
object Effectiveness {
  import Bipartite._

  /** Row of Table II. nL is |M| (movies); mAvg is the average number of
    * movies per user in the community; simPct the Jaccard similarity (in %)
    * of the vertex set against the SC community.
    */
  final case class ModelStats(model: String, nU: Long, nL: Long, rAvg: Double,
                              rMin: Double, mAvg: Double, simPct: Double)

  def stats(model: String, community: DataFrame, ref: DataFrame): ModelStats = {
    if (community.isEmpty)
      return ModelStats(model, 0, 0, 0.0, 0.0, 0.0, 0.0)
    val r = normalize(community)
      .agg(count(lit(1)), countDistinct(col(U)), countDistinct(col(V)),
        avg(col(W)), min(col(W))).head
    val (nE, nU, nL) = (r.getLong(0), r.getLong(1), r.getLong(2))
    val (rAvg, rMin) = (r.getDouble(3), r.getDouble(4))
    val a = vertexGids(community)
    val b = vertexGids(ref)
    val inter = a.join(b, Seq("gid"), "left_semi").count()
    val union = a.unionByName(b).distinct().count()
    val sim = if (union == 0) 0.0 else 100.0 * inter / union
    ModelStats(model, nU, nL, rAvg, rMin, if (nU == 0) 0.0 else nE.toDouble / nU, sim)
  }

  /** k-bitruss community: q's component of the k-bitruss of G. */
  def bitrussCommunity(edges: DataFrame, qGid: Long, k: Long): DataFrame =
    ConnectedComponents.componentEdges(Butterflies.bitruss(edges, k), qGid)

  /** C_{4*}: q's component of the subgraph induced by the items (lower layer)
    * whose average weight is >= 4.
    */
  def c4star(edges0: DataFrame, qGid: Long): DataFrame = {
    val edges = normalize(edges0)
    val good = edges.groupBy(V).agg(avg(col(W)).as("a"))
      .filter(col("a") >= 4.0).select(V)
    ConnectedComponents.componentEdges(edges.join(good, Seq(V), "left_semi"), qGid)
  }

  /** Greedy maximal-biclique community containing q with >= s vertices per
    * layer when possible. Exact maximal biclique enumeration [20] is
    * exponential; this driver-side greedy over the collected (s,s)-community
    * (every s-per-side biclique lies inside the (s,s)-core) is the documented
    * substitution — the comparison's point (bicliques are small and ignore
    * weights) is preserved.
    */
  def bicliqueCommunity(edges: DataFrame, qGid: Long, s: Int): DataFrame = {
    val g = LocalBipartite.fromEdges(collectEdges(CommunitySearch.online(edges, qGid, s, s)))
    val nbr: Long => Set[Long] = gid => g.adj.getOrElse(gid, Vector.empty).map(_._1).toSet
    var xs = Vector(qGid)
    var common = nbr(qGid)
    val candidates = (common.flatMap(nbr) - qGid).toVector.sorted
    var changed = true
    while (changed) {
      changed = false
      val scored = candidates.filterNot(xs.contains)
        .map(c => (c, (common & nbr(c)).size))
        .filter(_._2 >= s)
      if (scored.nonEmpty) {
        val (best, _) = scored.maxBy { case (c, overlap) => (overlap, -c) }
        xs :+= best
        common = common & nbr(best)
        changed = true
      }
    }
    val wOf: Map[(Long, Long), Double] = g.edges.map { case (u, v, w) => ((u, v), w) }.toMap
    val out = for {
      x <- xs
      y <- common.toVector.sorted
      (uu, vv) = if (LocalBipartite.isU(x)) (x >> 1, y >> 1) else (y >> 1, x >> 1)
      w <- wOf.get((uu, vv))
    } yield Row(uu, vv, w)
    localEdges(edges.sparkSession, out)
  }
}
