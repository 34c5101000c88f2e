package repro.graph

import org.apache.spark.sql.DataFrame

/** Connected components by min-gid label propagation over the gid-encoded
  * adjacency, and BFS component extraction.
  */
object ConnectedComponents {
  import Bipartite._

  /** Component labels: DataFrame(gid: long, comp: long) where comp is the
    * minimum gid reachable from the vertex.
    */
  def labels(edges: DataFrame): DataFrame =
    edges.sparkSession.createDataFrame(Fixpoint.run(edges, minLabel, minLabel)).toDF("gid", "comp")

  /** Each vertex keeps the least of its own label and its neighbors'. */
  private val minLabel: Fixpoint.Layer[Long] =
    Fixpoint.Layer(init = (gid, _) => gid, step = (s, msgs) => math.min(s, msgs.min))

  /** Edges of the connected component containing qGid (empty if absent). */
  def componentEdges(edges: DataFrame, qGid: Long): DataFrame =
    Bfs.subgraphFrom(sym(normalize(edges)), qGid)
}
