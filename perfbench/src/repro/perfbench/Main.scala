package repro.perfbench

import org.apache.spark.sql.catalyst.expressions.UnsafeProjection
import org.apache.spark.sql.types._
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.core.{BicoreIndex, CommunitySearch, DeltaIndex, Scs}
import repro.graph.Bipartite
import repro.local.LocalScs

import scala.collection.mutable
import scala.util.control.NonFatal

/** Benchmark entry point: one closed-loop client in one JVM on local[cores].
  *
  *   --workload retrieve|two-step --seed N --seconds S --trace 0|1
  *   --cores C
  *   --selftest   (checks that generated inputs do not depend on Spark)
  *
  * The last stdout line is the result object; a line starting with
  * "record " before it describes the run.
  */
object Main {
  final case class Opts(workload: String = "", seed: Long = 1, seconds: Int = 10,
                        trace: Boolean = false, cores: Int = 4, selftest: Boolean = false)

  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case "--workload" :: v :: t => parse(t, o.copy(workload = v))
    case "--seed" :: v :: t     => parse(t, o.copy(seed = v.toLong))
    case "--seconds" :: v :: t  => parse(t, o.copy(seconds = v.toInt))
    case "--trace" :: v :: t    => parse(t, o.copy(trace = v == "1"))
    case "--cores" :: v :: t    => parse(t, o.copy(cores = v.toInt))
    case "--selftest" :: t      => parse(t, o.copy(selftest = true))
    case Nil                    => o
    case other                  => throw new IllegalArgumentException(s"bad arguments: $other")
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args.toList)
    if (o.selftest) { SelfTest.run(o); return }
    require(Workloads.names.contains(o.workload), s"--workload must be one of ${Workloads.names}")
    val (wl, genS) = timed(Workloads.instance(o.workload, o.seed))
    Console.err.println(f"perfbench: generated ${o.workload} inputs in $genS%.2f s")
    if (o.trace) Traced.run(o, wl) else Untraced.run(o, wl)
    val upS = java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    Console.err.println(f"perfbench: JVM up for $upS%.2f s")
  }

  // ---------------------------------------------------------------------
  // Shared helpers
  // ---------------------------------------------------------------------

  def session(o: Opts): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[${o.cores}]")
      .appName(s"perfbench-${o.workload}")
      .config("spark.sql.shuffle.partitions", o.cores.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  val EdgeSchema: StructType = StructType(Seq(
    StructField("u", LongType, nullable = false),
    StructField("v", LongType, nullable = false),
    StructField("w", DoubleType, nullable = false)))

  /** The program's input: the generated edges as a materialized DataFrame. */
  def load(spark: SparkSession, edges: Vector[(Long, Long, Double)], parts: Int): DataFrame = {
    val rows = edges.map { case (u, v, w) => Row(u, v, w) }
    Bipartite.cp(spark.createDataFrame(spark.sparkContext.parallelize(rows, parts), EdgeSchema))
  }

  def now(): Long = System.nanoTime()
  def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def timed[T](f: => T): (T, Double) = {
    val t0 = now()
    val v = f
    (v, secs(t0))
  }

  type EdgeSet = Set[(Long, Long, Double)]

  def collect(df: DataFrame): EdgeSet = Bipartite.collectEdges(df).toSet

  /** Bytes of the index rows in Spark's binary (UnsafeRow) format. */
  def binaryBytes(df: DataFrame): Long = {
    val schema = df.schema
    df.queryExecution.toRdd.mapPartitions { it =>
      val proj = UnsafeProjection.create(schema)
      Iterator.single(it.map(r => proj(r).getSizeInBytes.toLong).sum)
    }.fold(0L)(_ + _)
  }

  /** Median; NaN (printed as null) when there are no samples. */
  def median(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else {
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile with at least ten samples beyond it, as
    * (percentile, value); None with fewer than 20 samples.
    */
  def tail(xs: Seq[Double]): Option[(Int, Double)] =
    if (xs.size < 20) None
    else {
      val s = xs.sorted
      val i = s.size - 11
      Some((math.floor(100.0 * (i + 1) / s.size).toInt, s(i)))
    }

  def fmt(x: Double): String =
    if (x.isNaN || x.isInfinite) "null" else java.math.BigDecimal.valueOf(x).toPlainString

  def jsonString(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def json(v: Any): String = v match {
    case null                 => "null"
    case s: String            => jsonString(s)
    case b: Boolean           => b.toString
    case i: Int               => i.toString
    case l: Long              => l.toString
    case d: Double            => fmt(d)
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => jsonString(k.toString) + ": " + json(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]      => xs.map(json).mkString("[", ", ", "]")
    case other                => jsonString(other.toString)
  }

  /** Prints the run record and, last, the result object. */
  def report(record: collection.Map[String, Any], attempted: Int, failed: Int,
             metrics: Seq[(String, Double, String)]): Unit = {
    println("record " + json(record))
    val m = mutable.LinkedHashMap[String, Any]()
    metrics.foreach { case (name, value, unit) =>
      m(name) = mutable.LinkedHashMap[String, Any]("value" -> value, "unit" -> unit)
    }
    val out = mutable.LinkedHashMap[String, Any](
      "correct" -> (failed == 0), "attempted" -> attempted, "failed" -> failed, "metrics" -> m)
    println(json(out))
  }

  def shapeRecord(wl: Workload): mutable.LinkedHashMap[String, Any] = {
    val g = wl.inst.oracle
    mutable.LinkedHashMap[String, Any](
      "workload" -> wl.name, "edges" -> g.nEdges, "upper" -> g.upperVertices.size,
      "lower" -> g.lowerVertices.size, "delta" -> wl.inst.delta,
      "weight_levels" -> g.edges.map(_._3).distinct.size,
      "inputs_fingerprint" -> wl.fingerprint.toHexString)
  }
}

/** The untraced run: end-to-end metrics. */
object Untraced {
  import Main._

  /** One timed call and what it returned (an error, or the edges of the
    * Option the call returned), checked after the timed loop. `own` is the
    * call's wall (NaN when it threw); the reported latency `wall` adds the
    * wall of the Q_opt call an SCS op ran on.
    */
  final case class Op(kind: String, qy: Query, own: Double, answer: Either[String, Option[EdgeSet]],
                      before: Double = 0.0) {
    def wall: Double = own + before
  }

  def run(o: Opts, wl: Workload): Unit = {
    val inst = wl.inst
    // Set-up: session start, loading the edges, the index build and warm-up.
    val t0 = now()
    val spark = session(o)
    val g = load(spark, inst.edges, o.cores)
    val idx = DeltaIndex.build(g)
    val iv = BicoreIndex.fromDelta(idx)
    val w = wl.warmUp
    val plan: Query => Seq[Op] = wl.name match {
      case "retrieve" =>
        retrievePlan(g, idx, iv)(w)
        retrievePlan(g, idx, iv)
      case _ =>
        CommunitySearch.viaDelta(idx, w.q, w.alpha, w.beta)
        twoStepPlan(idx)
    }
    val setupS = secs(t0)

    val ops = mutable.ArrayBuffer.empty[Op]
    val deadline = now() + o.seconds * 1000000000L
    var queries = 0
    while (now() < deadline) wl.queries.foreach { qy =>
      ops ++= plan(qy)
      queries += 1
    }
    val timedWall = ops.map(_.own).filterNot(_.isNaN).sum

    // Everything below is outside every timed interval and outside set-up.
    val t1 = now()
    val entries = idx.entryCount
    val bytes = binaryBytes(idx.entries) + binaryBytes(idx.vertexOffsets)
    spark.stop()
    val failures = ops.filterNot(op => check(inst, op))
    Console.err.println(f"perfbench: index size and oracle checks took ${secs(t1)}%.2f s")
    failures.take(5).foreach(f => Console.err.println(s"FAILED ${f.kind} ${f.qy}: ${f.answer.left.getOrElse("wrong answer")}"))
    def walls(kind: String) = ops.filter(_.kind == kind).map(_.wall).filterNot(_.isNaN).toSeq
    val (k1, k2, k3) = wl.opKinds
    val cSizes = ops.filter(_.kind == "qopt").flatMap(_.answer.toOption.flatten).map(_.size)
    val record = shapeRecord(wl) ++ Seq(
      "ops" -> Seq(k1, k2, k3), "queries" -> queries,
      "samples" -> Seq(walls(k1).size, walls(k2).size, walls(k3).size),
      "qopt_tail" -> tail(walls(k1)).map { case (p, v) => s"p$p=${fmt(v)}s" }.getOrElse("n<20"),
      "community_edges" -> (if (cSizes.isEmpty) "none" else s"${cSizes.min}..${cSizes.max}"),
      "failed_frac" -> failures.size.toDouble / ops.size)
    report(record, ops.size, failures.size, Seq(
      ("setup_s", setupS, "s"),
      ("ops_per_min", 60.0 * queries / timedWall, "1/min"),
      ("qopt_p50_s", median(walls(k1)), "s"),
      ("op2_p50_s", median(walls(k2)), "s"),
      ("op3_p50_s", median(walls(k3)), "s"),
      ("index_entries", entries.toDouble, "count"),
      ("index_bytes", bytes.toDouble, "B")))
  }

  /** Runs `f` and times it; the wall is NaN when it threw. */
  private def attempt[T](f: => T): (Either[String, T], Double) = {
    val t0 = now()
    val r = try Right(f) catch { case NonFatal(e) => Left(e.toString) }
    (r, if (r.isLeft) Double.NaN else secs(t0))
  }

  /** Runs `f`, times it, and collects its answer outside the timed interval. */
  private def op(kind: String, qy: Query)(f: => Option[DataFrame]): Op = {
    val (r, wall) = attempt(f)
    Op(kind, qy, wall, r.map(_.map(collect)))
  }

  /** retrieve: Q_opt on every query; Q_v and Q_o on queries marked `compare`. */
  def retrievePlan(g: DataFrame, idx: DeltaIndex, iv: BicoreIndex)(qy: Query): Seq[Op] = {
    val opt = op("qopt", qy)(Some(CommunitySearch.viaDelta(idx, qy.q, qy.alpha, qy.beta)))
    if (!qy.compare) Seq(opt)
    else Seq(opt,
      op("qv", qy)(Some(CommunitySearch.viaBicore(g, iv, qy.q, qy.alpha, qy.beta))),
      op("qo", qy)(Some(CommunitySearch.online(g, qy.q, qy.alpha, qy.beta))))
  }

  /** two-step: Q_opt, then SCS-Peel and SCS-Expand on its answer C. The
    * SCS ops are reported with Q_opt's wall added (the two-step query a user
    * would run); Q_opt is also reported on its own.
    */
  def twoStepPlan(idx: DeltaIndex)(qy: Query): Seq[Op] = {
    val (c, qoptWall) = attempt(CommunitySearch.viaDelta(idx, qy.q, qy.alpha, qy.beta))
    def scs(kind: String, f: DataFrame => Option[DataFrame]): Op = c match {
      case Left(e) => Op(kind, qy, Double.NaN, Left(e))
      case Right(df) =>
        op(kind, qy)(f(df)).copy(before = qoptWall)
    }
    Seq(Op("qopt", qy, qoptWall, c.map(df => Some(collect(df)))),
      scs("scs_peel", Scs.peel(_, qy.q, qy.alpha, qy.beta)),
      scs("scs_expand", Scs.expand(_, qy.q, qy.alpha, qy.beta)))
  }

  /** Compares one answer with the definitional oracle in repro.local. */
  def check(inst: Instance, op: Op): Boolean = op.answer match {
    case Left(_) => false
    case Right(got) =>
      val c = inst.community(op.qy)
      val expected = op.kind match {
        case "scs_peel" | "scs_expand" => LocalScs.semantic(c, op.qy.q, op.qy.alpha, op.qy.beta)
        case _                         => Some(c)
      }
      expected.map(_.edges.toSet) == got
  }
}
