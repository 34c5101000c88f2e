package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.perfbench.Bus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.core.{BicoreIndex, DeltaIndex, Scs}
import repro.graph.{Bipartite, ConnectedComponents, Offsets, Peel}
import repro.local.{LocalBipartite, LocalScs}

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Spark work counted by a benchmark-owned listener. */
final class Counters extends SparkListener {
  val jobs = new AtomicLong
  val tasks = new AtomicLong
  val shuffleBytes = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    if (e.taskMetrics != null) shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
  }
}

/** Spans around calls into the program's layers, kept in memory and
  * summarized (median per span name) when the run ends.
  */
final class Tracer(spark: SparkSession) {
  private val sc = spark.sparkContext
  private val counters = new Counters
  sc.addSparkListener(counters)

  final case class Span(s: Double, jobs: Long, tasks: Long, shuffleMb: Double)

  val spans: mutable.LinkedHashMap[String, mutable.ArrayBuffer[Span]] = mutable.LinkedHashMap.empty
  val values: mutable.LinkedHashMap[String, (String, mutable.ArrayBuffer[Double])] = mutable.LinkedHashMap.empty

  def span[T](name: String)(f: => T): (T, Span) = {
    Bus.drain(sc)
    val (j0, t0, b0) = (counters.jobs.get, counters.tasks.get, counters.shuffleBytes.get)
    val start = System.nanoTime()
    val v = f
    val wall = (System.nanoTime() - start) / 1e9
    Bus.drain(sc)
    val sp = Span(wall, counters.jobs.get - j0, counters.tasks.get - t0,
      (counters.shuffleBytes.get - b0) / 1e6)
    spans.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += sp
    (v, sp)
  }

  def value(name: String, unit: String, x: Double): Unit =
    values.getOrElseUpdate(name, (unit, mutable.ArrayBuffer.empty))._2 += x

  /** (metric, median value, unit) for every span field and value. */
  def metrics: Seq[(String, Double, String)] =
    spans.toSeq.flatMap { case (name, xs) =>
      Seq((s"$name.s", Main.median(xs.map(_.s).toSeq), "s"),
        (s"$name.jobs", Main.median(xs.map(_.jobs.toDouble).toSeq), "count"),
        (s"$name.tasks", Main.median(xs.map(_.tasks.toDouble).toSeq), "count"),
        (s"$name.shuffle_mb", Main.median(xs.map(_.shuffleMb).toSeq), "MB"))
    } ++ values.toSeq.map { case (name, (unit, xs)) => (name, Main.median(xs.toSeq), unit) }
}

/** The traced run: per-layer metrics. It calls each layer's public
  * functions on the workload's own graph and queries, one span per call.
  */
object Traced {
  import Main._

  /** Retrieve queries (with a nonempty community) whose Q_opt, Q_v and
    * whole-graph peel are traced.
    */
  val RetrievalQueries = 2

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** Rounds of Bfs.subgraphFrom's loop from q over C: q's eccentricity in
    * C, plus the final round that finds no new vertex.
    */
  def bfsRounds(c: LocalBipartite, q: Long): Int = {
    val dist = mutable.HashMap(q -> 0)
    val queue = mutable.Queue(q)
    while (queue.nonEmpty) {
      val x = queue.dequeue()
      c.adj(x).foreach { case (y, _) =>
        if (!dist.contains(y)) { dist(y) = dist(x) + 1; queue.enqueue(y) }
      }
    }
    dist.values.max + 1
  }

  def run(o: Opts, wl: Workload): Unit = {
    val inst = wl.inst
    var attempted = 0
    var failed = 0
    def check(what: String, ok: => Boolean): Unit = {
      attempted += 1
      val good = try ok catch { case NonFatal(e) => Console.err.println(s"$what: $e"); false }
      if (!good) { failed += 1; Console.err.println(s"FAILED $what") }
    }

    val spark = session(o)
    val tr = new Tracer(spark)
    val gc0 = gcSeconds()
    val g = load(spark, inst.edges, o.cores)
    val nEdges = inst.edges.size.toDouble

    // graph.Offsets and core.DeltaIndex.build, after an untraced warm-up
    // build so that the explode share (build minus the offset calls) is
    // taken between warm calls.
    DeltaIndex.build(g)
    val (delta, deg) = tr.span("offsets.degeneracy")(Offsets.degeneracy(g))
    check("degeneracy", delta == inst.delta)
    val (_, alphaAll) = tr.span("offsets.alpha_all")(Offsets.alphaOffsetsAll(g, delta))
    val (_, betaAll) = tr.span("offsets.beta_all")(Offsets.betaOffsetsAll(g, delta))
    val (idx, build) = tr.span("delta_index.build")(DeltaIndex.build(g))
    tr.value("delta_index.explode.s", "s", build.s - deg.s - alphaAll.s - betaAll.s)
    tr.value("index.entries_per_edge", "ratio", idx.entryCount / nEdges)
    val iv = BicoreIndex.fromDelta(idx)

    // core.DeltaIndex.query / graph.Bfs, core.BicoreIndex.query and
    // graph.Peel on G, over the workload's first queries that reach BFS.
    val retrieval = (wl.queries ++ wl.twoStep).distinct.filter(q => inst.core(q.alpha, q.beta).contains(q.q))
    val overhead = mutable.ArrayBuffer.empty[Double]
    DeltaIndex.query(idx, retrieval.head.q, retrieval.head.alpha, retrieval.head.beta) // warm-up
    retrieval.take(RetrievalQueries).foreach { qy =>
      val c = inst.community(qy)
      val (_, untraced) = timed(DeltaIndex.query(idx, qy.q, qy.alpha, qy.beta))
      val (got, opt) = tr.span("qopt")(DeltaIndex.query(idx, qy.q, qy.alpha, qy.beta))
      overhead += opt.s - untraced
      check(s"qopt $qy", collect(got) == c.edges.toSet)
      val rounds = bfsRounds(c, qy.q)
      val rows = idx.entries.filter(s"part = '${qy.part}' AND tau = ${qy.tau} AND off >= ${qy.bound}").count()
      tr.value("qopt.bfs_rounds", "count", rounds)
      tr.value("qopt.jobs_per_round", "jobs/round", opt.jobs.toDouble / rounds)
      tr.value("qopt.rows_scanned", "count", rows.toDouble)
      tr.value("qopt.optimality", "ratio", rows / (2.0 * c.nEdges))

      val (qv, _) = tr.span("qv")(BicoreIndex.query(g, iv, qy.q, qy.alpha, qy.beta))
      check(s"qv $qy", collect(qv) == c.edges.toSet)
      tr.value("qv.rows_scanned", "count", nEdges + 2.0 * inst.core(qy.alpha, qy.beta).nEdges)

      val (core, _) = tr.span("peel.graph")(Peel.core(g, qy.alpha, qy.beta))
      check(s"peel.graph $qy", collect(core) == inst.core(qy.alpha, qy.beta).edges.toSet)
    }

    // graph.Peel and graph.ConnectedComponents on C, core.Scs, and the
    // sequential reference on the same collected C, for the two-step
    // workload's timed query.
    locally {
      val qy = wl.twoStep.last
      val c = DeltaIndex.query(idx, qy.q, qy.alpha, qy.beta)
      val (local, collectS) = timed(LocalBipartite(Bipartite.collectEdges(c)))
      tr.value("local.collect_c.s", "s", collectS)
      val expected = LocalScs.semantic(inst.community(qy), qy.q, qy.alpha, qy.beta)
        .map(_.edges.toSet).getOrElse(Set.empty)

      val (pc, _) = tr.span("peel.community")(Peel.core(c, qy.alpha, qy.beta))
      check(s"peel.community $qy", collect(pc) == local.core(qy.alpha, qy.beta).edges.toSet)
      val (labels, _) = tr.span("cc.community")(ConnectedComponents.labels(c))
      check(s"cc.community $qy", labels.collect().map(r => (r.getLong(0), r.getLong(1))).toMap == local.components)

      val (rPeel, peel) = tr.span("scs.peel")(Scs.peel(c, qy.q, qy.alpha, qy.beta))
      check(s"scs.peel $qy", rPeel.map(collect).getOrElse(Set.empty) == expected)
      val (rExpand, _) = tr.span("scs.expand")(Scs.expand(c, qy.q, qy.alpha, qy.beta))
      check(s"scs.expand $qy", rExpand.map(collect).getOrElse(Set.empty) == expected)

      val levels = local.edges.map(_._3).distinct.size
      tr.value("scs.levels", "count", levels)
      tr.value("scs.peel.jobs_per_level", "jobs/level", peel.jobs.toDouble / levels)
      tr.value("scs.r_over_c", "ratio", expected.size.toDouble / local.nEdges)
      tr.value("local.scs_peel.s", "s", timed(LocalScs.peel(local, qy.q, qy.alpha, qy.beta))._2)
      tr.value("local.scs_expand.s", "s", timed(LocalScs.expand(local, qy.q, qy.alpha, qy.beta))._2)
    }

    tr.value("jvm.gc_s", "s", gcSeconds() - gc0)
    tr.value("trace.overhead_s", "s", median(overhead.toSeq))
    spark.stop()

    report(shapeRecord(wl) ++ Seq("traced_calls" -> tr.spans.map { case (k, v) => k -> v.size }),
      attempted, failed, tr.metrics)
  }
}
