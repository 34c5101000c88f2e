package repro.perfbench

import repro.local.LocalBipartite

import scala.collection.mutable

/** One community-search query: q's gid and the (alpha, beta) constraint;
  * `compare` marks retrieve queries that also run Q_v and Q_o.
  */
final case class Query(q: Long, alpha: Int, beta: Int, compare: Boolean = false) {
  /** Q_opt's dispatch: part a at tau = alpha when alpha <= beta, else part b. */
  def part: String = if (alpha <= beta) "a" else "b"
  def tau: Int = math.min(alpha, beta)
  def bound: Int = math.max(alpha, beta)
}

/** Generated edges (what the program receives) and the definitional oracle
  * built from the same edges.
  */
final class Instance(val edges: Vector[(Long, Long, Double)]) {
  val oracle: LocalBipartite = LocalBipartite(edges)
  lazy val delta: Int = oracle.degeneracy

  private val cores = mutable.HashMap.empty[(Int, Int), LocalBipartite]

  /** The (alpha, beta)-core by definition, cached per constraint. */
  def core(alpha: Int, beta: Int): LocalBipartite =
    cores.getOrElseUpdate((alpha, beta), oracle.core(alpha, beta))

  /** C_{alpha,beta}(q) by definition. */
  def community(qy: Query): LocalBipartite = core(qy.alpha, qy.beta).componentOf(qy.q)
}

/** A workload instance: the edges, the cycle of queries the timed loop
  * repeats (checking the clock only between cycles, so every run measures
  * whole cycles), and a warm-up query. `opKinds` names the three timed ops
  * reported as qopt, op2 and op3. `twoStep` holds the two-step queries on
  * this instance, which the traced run uses on every workload.
  */
final case class Workload(name: String, inst: Instance, queries: Vector[Query], warmUp: Query,
                          opKinds: (String, String, String), twoStep: Vector[Query]) {
  /** Order-sensitive hash of everything the run is given. */
  def fingerprint: Long =
    (inst.edges.iterator.map { case (u, v, w) => Gen.mix(u * 31 + v) ^ java.lang.Double.doubleToLongBits(w) } ++
      (warmUp +: queries).iterator.map(q => Gen.mix(q.q) ^ (q.alpha * 131L + q.beta) ^ (if (q.compare) 7L else 0L)))
      .foldLeft(17L)((h, x) => Gen.mix(h ^ x))
}

/** The benchmark's workloads. Both use one fixed weighted graph (the
  * dataset) and a fixed query list drawn from it. `--seed` relabels the
  * vertices of both layers and reorders the edge list, so each run measures
  * the same work on an isomorphic copy with a different id assignment and
  * partition layout. A run completes only a few queries, so drawing new
  * queries per seed would make runs differ by the queries drawn rather than
  * by the program.
  */
object Workloads {
  val names: Seq[String] = Seq("retrieve", "two-step")

  /** BS-shaped analog (Table I's BS row at ~1/70 scale): ~6.4K edges over
    * 800 x 1900 id ranges with zipf-0.8 endpoints and WeightLevels uniform
    * integer weights. Every weight level costs SCS a fixed number of
    * dataflow rounds, and one SCS-Expand must fit a run.
    */
  val WeightLevels = 4
  val bsShape: Gen.GraphSpec = Gen.GraphSpec(800, 1900, 6880, 0.8, 0.8, WeightLevels)
  val GraphSeed = 101L

  /** Retrieve queries per cycle: the first also runs Q_v and Q_o, the last
    * has q outside the core.
    */
  val RetrieveCycle = 4

  def instance(name: String, seed: Long): Workload = {
    val base = new Instance(Gen.edges(bsShape, GraphSeed))
    val (edges, gid) = relabel(base.edges, seed)
    val inst = new Instance(edges)
    def mapped(qs: Vector[Query]) = qs.map(q => q.copy(q = gid(q.q)))
    val twoStep = mapped(twoStepQueries(base))
    name match {
      case "retrieve" =>
        val qs = mapped(retrieveQueries(base, RetrieveCycle + 1))
        Workload(name, inst, qs.tail, qs.head.copy(compare = true), ("qopt", "qv", "qo"), twoStep)
      case "two-step" =>
        Workload(name, inst, twoStep.tail, twoStep.head, ("qopt", "scs_peel", "scs_expand"), twoStep)
      case other => throw new IllegalArgumentException(s"unknown workload '$other'")
    }
  }

  /** Isomorphic copy of `es` under a seeded permutation of each layer's ids,
    * with the edge list reordered by a seeded hash; also returns the map
    * from old to new gids.
    */
  def relabel(es: Vector[(Long, Long, Double)], seed: Long): (Vector[(Long, Long, Double)], Long => Long) = {
    def perm(ids: Seq[Long], stream: Long): Map[Long, Long] =
      ids.distinct.sortBy(id => Gen.mix(Gen.mix(seed ^ stream) ^ id)).zipWithIndex
        .map { case (id, i) => id -> (i + 1L) }.toMap
    val pu = perm(es.map(_._1), 21)
    val pl = perm(es.map(_._2), 22)
    val out = es.map { case (u, v, w) => (pu(u), pl(v), w) }
      .sortBy { case (u, v, _) => Gen.mix(Gen.mix(seed ^ 23) ^ (u * 1000003L + v)) }
    val gid = (g: Long) =>
      if (LocalBipartite.isU(g)) LocalBipartite.gidU(pu(LocalBipartite.rawId(g)))
      else LocalBipartite.gidL(pl(LocalBipartite.rawId(g)))
    (out, gid)
  }

  private def sortedGids(g: LocalBipartite): Vector[Long] = g.vertices.toVector.sorted

  private def pick(xs: Vector[Long], r: Double): Long = xs((r * xs.size).toInt.min(xs.size - 1))

  /** Retrieve mix: query j takes tau from a permutation of [1, delta] and
    * alternates the dispatch part (a: alpha <= beta, b: alpha > beta); the
    * other parameter is drawn above tau and lowered until the core is
    * nonempty; q is a core vertex, except that the last query of each
    * RetrieveCycle takes q outside the core (Q_opt's early exit). Query 0 is
    * the warm-up and runs Q_v and Q_o too.
    */
  def retrieveQueries(inst: Instance, n: Int): Vector[Query] = {
    val delta = inst.delta
    val all = sortedGids(inst.oracle)
    val taus = (1 to delta).sortBy(t => Gen.mix(GraphSeed * 31 + t)).toVector
    Vector.tabulate(n) { j =>
      val tau = taus(j % delta)
      val partA = ((j / delta) + j) % 2 == 0
      val lo = if (partA) tau else tau + 1
      def coreAt(b: Int) = if (partA) inst.core(tau, b) else inst.core(b, tau)
      var bound = lo + (Gen.unit(GraphSeed, 12, j) * (tau + 1)).toInt
      while (bound > lo && coreAt(bound).isEmpty) bound -= 1
      val (alpha, beta) = if (partA) (tau, bound) else (bound, tau)
      val core = inst.core(alpha, beta)
      val inCore = sortedGids(core)
      val outside = all.filterNot(core.contains)
      val q =
        if (inCore.isEmpty || (outside.nonEmpty && j > 0 && j % RetrieveCycle == 0))
          pick(outside, Gen.unit(GraphSeed, 14, j))
        else pick(inCore, Gen.unit(GraphSeed, 15, j))
      Query(q, alpha, beta, compare = j % RetrieveCycle == 1)
    }
  }

  /** Two-step queries at Fig 13's two settings, alpha = beta = round(0.7
    * delta) and alpha = beta = delta / 2, each with q drawn from the core.
    * One two-step query takes 10-20 s, so the timed loop runs only the
    * delta / 2 query (where Fig 13 has SCS-Expand ahead of SCS-Peel); the
    * 0.7 delta query serves as warm-up.
    */
  def twoStepQueries(inst: Instance): Vector[Query] = {
    val delta = inst.delta
    Vector(math.max(1, math.round(0.7 * delta).toInt), math.max(1, delta / 2)).zipWithIndex.map {
      case (p, j) => Query(pick(sortedGids(inst.core(p, p)), Gen.unit(GraphSeed, 16, j)), p, p)
    }
  }
}
