package repro.graph

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

/** The message-passing fixpoint shared by the offsets, the core numbers, the
  * component labels and the (alpha, beta)-core peel.
  *
  * Every vertex of a bipartite edge list is a record `(gid, nbrs, s,
  * changed)` holding its sorted neighbors and its current value, and it stays
  * in the hash partition of its gid for the whole run. A half-step makes one
  * layer send `(dst, s)` to each neighbor; the messages are the only shuffle,
  * cogrouped with the state under its own partitioner. Each vertex of the
  * other layer replaces `s` by its layer's `step` over its old value and
  * what it received. The new state is checkpointed and its changed vertices
  * counted in the same job, and the state it supersedes is unpersisted. The
  * layers alternate, upper first.
  *
  * When a half-step other than the first changes no vertex, the receiving
  * layer's values are its step over the sender's values, which were in
  * turn computed from those same receiving values: both layers are at a
  * fixpoint. Termination is the caller's condition: the offset and core
  * updates only lower non-negative integers, the min-label update only
  * lowers gids, the peel's alive bit only turns off.
  */
private[graph] object Fixpoint {
  import Bipartite._

  /** A layer's update rule: `init(gid, degree)` is a vertex's first value,
    * `step(old, received)` its next one.
    */
  final case class Layer[S](init: (Long, Int) => S, step: (S, Iterable[S]) => S)

  private final case class Vertex[S](nbrs: Array[Long], s: S, changed: Boolean)

  /** Runs the fixpoint on `edges0`: (gid, s) for every vertex, read from the
    * final state, which stays persisted. Rejects null ids and duplicate
    * edges.
    */
  def run[S](edges0: DataFrame, upper: Layer[S], lower: Layer[S]): RDD[(Long, S)] = {
    val part = new HashPartitioner(edges0.sparkSession.sessionState.conf.numShufflePartitions)
    val pairs = normalize(edges0).select(U, V).queryExecution.toRdd.flatMap { r =>
      requireNonNull(r, U, V)
      val (u, v) = (gidOfU(r.getLong(0)), gidOfL(r.getLong(1)))
      Iterator((u, v), (v, u))
    }
    // A Vector combiner, not groupByKey: Spark shuffles (Long, Long) with Kryo.
    var state: RDD[(Long, Vertex[S])] =
      pairs.aggregateByKey(Vector.empty[Long], part)(_ :+ _, _ ++ _).mapPartitions(_.map { case (gid, ns) =>
        val nbrs = ns.toArray.sorted
        for (i <- 1 until nbrs.length if nbrs(i) == nbrs(i - 1)) {
          val (x, y) = (gid >> 1, nbrs(i) >> 1)
          val (u, v) = if (isUGid(gid)) (x, y) else (y, x)
          throw new IllegalArgumentException(s"duplicate edge (u=$u, v=$v)")
        }
        val layer = if (isUGid(gid)) upper else lower
        (gid, Vertex(nbrs, layer.init(gid, nbrs.length), changed = false))
      }, preservesPartitioning = true)
    var half = 0
    var done = false
    while (!done) {
      half += 1
      val (fromUpper, layer) = if (half % 2 == 1) (false, upper) else (true, lower)
      val msgs = state.flatMap { case (gid, x) =>
        if (isUGid(gid) == fromUpper) x.nbrs.iterator.map(dst => (dst, x.s)) else Iterator.empty
      }
      val next = state.cogroup(msgs, part).mapValues { case (xs, received) =>
        val x = xs.head
        if (received.isEmpty) x.copy(changed = false) // the sending layer
        else {
          val s = layer.step(x.s, received)
          Vertex(x.nbrs, s, !java.util.Objects.deepEquals(s, x.s))
        }
      }.localCheckpoint()
      val changed = next.filter(_._2.changed).count()
      state.unpersist(blocking = false)
      state = next
      done = half >= 2 && changed == 0
    }
    state.mapValues(_.s)
  }
}
