package repro.graph

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

/** Distributed (alpha,beta)-core offset computation.
  *
  * The paper computes alpha-offsets `s_a(x, alpha)` (the max beta with x in
  * the (alpha,beta)-core) by sequential bin-sort peeling. The dataflow
  * rendition is a monotone fixpoint in the style of distributed k-core
  * decomposition (Montresor et al.), generalized to (alpha,·)-cores:
  *
  *   - the constrained side (upper for alpha-offsets) updates to the alpha-th
  *     largest of its neighbors' current values (0 if degree < alpha);
  *   - the free side updates to the h-index of its neighbors' values
  *     (max beta such that >= beta neighbors have value >= beta).
  *
  * Initialized from degree upper bounds, values decrease monotonically to the
  * greatest fixpoint, which equals the true offsets (any fixpoint induces a
  * valid (alpha,beta)-core membership witness and the true offsets are a
  * fixpoint). Every tau in [1, taus] and both the alpha and beta parts are
  * independent positions of one Array[Int] value per vertex, iterated in
  * lockstep by one [[Fixpoint]] run. Correctness is cross-checked against the
  * definitional sequential oracle in the test suite.
  */
object Offsets {

  /** A value above every offset: what a vertex's value is bounded by before
    * its neighbors have reported.
    */
  private val Big = Int.MaxValue

  /** Position p of the new value is the rules(p)-th largest of the
    * neighbors' values at p when rules(p) > 0 (0 if there are fewer), and
    * their h-index when rules(p) = 0.
    */
  private def update(msgs: Iterable[Array[Int]], rules: Array[Int]): Array[Int] = {
    val xs = msgs.toArray
    val d = xs.length
    val buf = new Array[Int](d)
    Array.tabulate(rules.length) { p =>
      var i = 0
      while (i < d) { buf(i) = xs(i)(p); i += 1 }
      java.util.Arrays.sort(buf)
      val k = rules(p)
      if (k > 0) { if (d >= k) buf(d - k) else 0 }
      else {
        var h = 0
        while (h < d && buf(d - h - 1) >= h + 1) h += 1
        h
      }
    }
  }

  /** The layer whose positions follow `rules`, starting from the update over
    * `degree` neighbors that all report Big.
    */
  private def layer(rules: Array[Int]): Fixpoint.Layer[Array[Int]] = Fixpoint.Layer(
    init = (_, deg) => rules.map(k => if (k == 0) deg else if (deg >= k) Big else 0),
    step = (_, msgs) => update(msgs, rules))

  private def constrained(taus: Int): Array[Int] = (1 to taus).toArray
  private def free(taus: Int): Array[Int] = new Array[Int](taus)

  private def offsets(edges: DataFrame, upper: Array[Int], lower: Array[Int]): DataFrame =
    edges.sparkSession.createDataFrame(Fixpoint.run(edges, layer(upper), layer(lower))).toDF("gid", "offs")

  /** All alpha-offsets for tau in [1, taus] at once:
    * DataFrame(gid: long, offs: array<int>) with offs[t-1] = s_a(gid, t),
    * covering every vertex of G (0 outside the (t,1)-core).
    */
  def alphaOffsetsAll(edges: DataFrame, taus: Int): DataFrame =
    offsets(edges, constrained(taus), free(taus))

  /** All beta-offsets for tau in [1, taus] at once. */
  def betaOffsetsAll(edges: DataFrame, taus: Int): DataFrame =
    offsets(edges, free(taus), constrained(taus))

  /** Both parts in one fixpoint: DataFrame(gid: long, offs: array<int>) with
    * offs[t-1] = s_a(gid, t) and offs[taus+t-1] = s_b(gid, t).
    */
  def alphaBetaOffsetsAll(edges: DataFrame, taus: Int): DataFrame =
    offsets(edges, constrained(taus) ++ free(taus), free(taus) ++ constrained(taus))

  /** Unipartite core numbers over the gid-encoded graph. The (tau,tau)-core of
    * a bipartite graph is exactly the tau-core of the graph with the
    * bipartition ignored, so the degeneracy delta is the max core number
    * (as the paper notes, citing [21]).
    */
  def coreNumbers(edges: DataFrame): DataFrame =
    edges.sparkSession.createDataFrame(cores(edges)).toDF("gid", "core")

  /** Degeneracy: the largest tau with a nonempty (tau,tau)-core. */
  def degeneracy(edges: DataFrame): Int = cores(edges).values.fold(0)(math.max)

  private def cores(edges: DataFrame): RDD[(Long, Int)] =
    Fixpoint.run(edges, layer(free(1)), layer(free(1))).mapValues(_(0))
}
