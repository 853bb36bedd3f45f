package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.algos.AlgoRun
import repro.compiler.{CostBased, FuseAll, FuseNoRedundancy}
import repro.core._

/** Benchmark driver: one workload, one seed, one JVM.
  *
  * Order of a run: SparkSession start, input generation (three times, the
  * median is the set-up share), the cold Gen pass (the first Gen pass of
  * this JVM, so javac and JIT are cold), warm-up rounds, then timed rounds
  * until `--seconds` have passed. A round runs one pass per mode, in an
  * order rotated every round; a pass runs every algorithm call of the
  * workload on a fresh [[ExecContext]]. Every pass is checked against the
  * first Base pass of the run.
  *
  * With `--trace 1` every other timed round is traced: per-pass probe
  * deltas, one span per pass and per algorithm call, and the Spark jobs of
  * each call. The untraced rounds of the same run give the tracing
  * overhead. The result (and the spans) are written as JSON files.
  */
object PerfBench {

  /** Pass labels of the five modes, in the order of the paper's tables. */
  val Modes: Seq[(String, ExecMode)] = Seq(
    "base" -> BaseMode, "fused" -> FusedMode, "gen" -> GenMode(CostBased),
    "gen_fa" -> GenMode(FuseAll), "gen_fnr" -> GenMode(FuseNoRedundancy))
  val ColdLabel = "gen_cold"
  val GenLabels: Seq[String] = Seq("gen", "gen_fa", "gen_fnr", ColdLabel)
  val AllLabels: Seq[String] = Modes.map(_._1) :+ ColdLabel

  /** Relative loss tolerance against Base (as in `Benchmarks.runAllModes`). */
  val Tolerance = 1e-4
  private val MB = 1024.0 * 1024.0

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, toy: Boolean,
                        out: String, traceOut: String, gitSha: String)

  final case class Pass(label: String, round: Int, traced: Boolean, wallS: Double, peakHeapMb: Double,
                        losses: Seq[Double], iterations: Int, error: Option[String],
                        delta: Option[JvmProbe.Snapshot], groups: Seq[String]) {
    var failed: Boolean = error.isDefined
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val nproc = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder
      .master(s"local[$nproc]")
      .appName(s"perfbench-${o.workload}")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val sc = spark.sparkContext
    val listener = if (o.trace) Some(new JobListener) else None
    listener.foreach(sc.addSparkListener)
    val sparkStartS = (System.currentTimeMillis() - jvmStartMs) / 1e3

    val runId = f"${o.workload}-seed${o.seed}-${if (o.trace) "traced" else "untraced"}-${System.currentTimeMillis()}%x"
    val spans = new Spans(runId)
    val runSpan = spans.open(0, "run", o.workload)

    // inputs: built three times, the median counts toward set-up
    val builds = (1 to 3).map(_ => timed(Workloads.build(o.workload, o.seed, o.toy, spark)))
    val wl = builds.last._1
    val inputsS = median(builds.map(_._2))

    val passes = mutable.ArrayBuffer[Pass]()
    // each pass runs on a fresh thread: in probes on a shared 4-core VM this
    // cut the run-to-run spread of the pass medians about in half, against
    // running every pass on the main thread
    def run(label: String, mode: ExecMode, round: Int, traced: Boolean): Unit = {
      var p: Pass = null
      val t = new Thread(() => p = runPass(wl, label, mode, round, traced, spans, runSpan.id, sc),
        s"pass-$label-$round")
      t.start()
      t.join()
      passes += p
    }

    run(ColdLabel, GenMode(CostBased), -1, o.trace)

    // warm-up rounds; the JIT compiler's share of each round is recorded
    val warmStart = System.nanoTime()
    val jitShares = (0 until (if (o.toy) 1 else wl.warmupRounds)).map { r =>
      val (j0, t0) = (JvmProbe.jitMillis, System.nanoTime())
      Modes.foreach { case (l, m) => run(l, m, -2 - r, traced = false) }
      (JvmProbe.jitMillis - j0) / ((System.nanoTime() - t0) / 1e6)
    }
    val warmupS = (System.nanoTime() - warmStart) / 1e9
    val setupS = sparkStartS + inputsS + warmupS

    val loopStart = System.nanoTime()
    var round = 0
    val minRounds = if (o.toy) 2 else 3
    while (round < minRounds || (System.nanoTime() - loopStart) / 1e9 < o.seconds) {
      val k = round % Modes.size
      val traced = o.trace && round % 2 == 0
      (Modes.drop(k) ++ Modes.take(k)).foreach { case (l, m) => run(l, m, round, traced) }
      round += 1
    }
    val loopS = (System.nanoTime() - loopStart) / 1e9
    spans.close(runSpan)
    // stopping drains the listener bus, so every job and task event is in
    spark.stop()

    checkAgainstBase(passes.toSeq)
    val timedPasses = passes.filter(_.round >= 0).toSeq
    val attempted = passes.size
    val failed = passes.count(_.failed)

    val e2e = endToEnd(timedPasses.filterNot(_.traced), passes.find(_.label == ColdLabel).get,
      setupS, failed, attempted)
    val passLayers = listener.map(l => passes.filter(_.traced).map(p => p -> layerValues(p, l)).toMap)
      .getOrElse(Map.empty[Pass, Map[String, (Double, String)]])
    val layers = if (o.trace) perLayer(passes.toSeq, passLayers) else Map.empty[String, (Double, String)]

    if (o.trace) {
      addJobSpans(spans, listener.get)
      write(o.traceOut, spans.toJson.map(Json.write).mkString("", "\n", "\n"))
    }

    val rt = Runtime.getRuntime
    val result = mutable.LinkedHashMap[String, Any](
      "workload" -> o.workload, "seed" -> o.seed, "trace" -> o.trace, "toy" -> o.toy, "run_id" -> runId,
      "env" -> mutable.LinkedHashMap[String, Any](
        "nproc" -> nproc,
        "max_heap_mb" -> rt.maxMemory / MB,
        "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
        "gc" -> ManagementFactory.getGarbageCollectorMXBeans.toArray.map(
          _.asInstanceOf[java.lang.management.GarbageCollectorMXBean].getName).mkString("+"),
        "spark" -> s"${spark.version} local[$nproc]",
        "git_sha" -> o.gitSha,
        "seed" -> o.seed,
        "inputs" -> wl.inputs.map(i => mutable.LinkedHashMap[String, Any](
          "name" -> i.name, "rows" -> i.block.rows, "cols" -> i.block.cols, "nnz" -> i.block.nnz,
          "format" -> (if (i.block.isSparseFormat) "sparse" else "dense"),
          "computed_bytes" -> i.computedBytes)),
        "calls" -> wl.calls.map(c => s"${c.name}(${c.data})"),
      ),
      "setup" -> mutable.LinkedHashMap[String, Any](
        "spark_start_s" -> sparkStartS, "inputs_s" -> builds.map(_._2), "warmup_s" -> warmupS,
        "warmup_rounds" -> jitShares.size, "warmup_jit_share" -> jitShares, "setup_s" -> setupS),
      "timed_rounds" -> round, "timed_loop_s" -> loopS,
      "attempted" -> attempted, "failed" -> failed,
      "end_to_end" -> metricsJson(e2e),
      "per_layer" -> metricsJson(layers),
      "passes" -> passes.map(p => mutable.LinkedHashMap[String, Any](
        "label" -> p.label, "round" -> p.round, "traced" -> p.traced, "wall_s" -> p.wallS,
        "peak_heap_mb" -> p.peakHeapMb, "losses" -> p.losses, "iterations" -> p.iterations,
        "failed" -> p.failed, "error" -> p.error,
        "layers" -> passLayers.get(p).map(m => m.map { case (k, v) => k -> v._1 }))),
    )
    write(o.out, Json.write(result) + "\n")
  }

  // ----------------------------------------------------------------- passes

  private def runPass(wl: Workload, label: String, mode: ExecMode, round: Int, traced: Boolean,
                      spans: Spans, parent: Int, sc: org.apache.spark.SparkContext): Pass = {
    JvmProbe.resetPeaks()
    val before = if (traced) Some(JvmProbe.snapshot()) else None
    val passSpan = if (traced) Some(spans.open(parent, "pass", label)) else None
    val losses = Array.fill(wl.calls.size)(Double.NaN)
    val groups = mutable.ArrayBuffer[String]()
    var iterations = 0
    var error = Option.empty[String]
    val t0 = System.nanoTime()
    try {
      val ctx = wl.newContext(mode)
      wl.calls.zipWithIndex.foreach { case (call, i) =>
        val algoSpan = passSpan.map(p => spans.open(p.id, "algo", call.name))
        algoSpan.foreach { s =>
          val g = s"${spans.runId}/${s.id}"
          groups += g
          s.attrs("job_group") = g
          s.attrs("data") = call.data
          sc.setJobGroup(g, call.name)
        }
        try {
          val r: AlgoRun = call.run(ctx)
          losses(i) = r.loss
          iterations += r.iterations
          algoSpan.foreach { s => s.attrs("loss") = r.loss; s.attrs("iterations") = r.iterations }
        } finally {
          algoSpan.foreach { s => spans.close(s); sc.clearJobGroup() }
        }
      }
    } catch {
      case e: Throwable => error = Some(e.toString)
    }
    val wallS = (System.nanoTime() - t0) / 1e9
    val after = if (traced) Some(JvmProbe.snapshot()) else None
    val peakMb = JvmProbe.peakHeapBytes / MB
    passSpan.foreach { s =>
      spans.close(s)
      s.attrs("round") = round
      s.attrs("wall_s") = wallS
      s.attrs("error") = error
    }
    Pass(label, round, traced, wallS, peakMb, losses.toSeq, iterations, error,
      for (a <- after; b <- before) yield a.minus(b), groups.toSeq)
  }

  /** A pass fails if it threw or any call's loss is off Base's by more
    * than [[Tolerance]] (relative, floored at 1). The reference is the
    * first Base pass that completed. */
  private def checkAgainstBase(passes: Seq[Pass]): Unit = {
    val ref = passes.find(p => p.label == "base" && p.error.isEmpty).map(_.losses)
    passes.foreach { p =>
      p.failed = p.error.isDefined || ref.forall { r =>
        r.zip(p.losses).exists { case (l, x) =>
          !(math.abs(x - l) <= Tolerance * math.max(1.0, math.abs(l)))
        }
      }
    }
  }

  // ---------------------------------------------------------------- metrics

  private def endToEnd(timed: Seq[Pass], cold: Pass, setupS: Double,
                       failed: Int, attempted: Int): Map[String, (Double, String)] = {
    def wall(label: String) = median(timed.filter(p => p.label == label && p.error.isEmpty).map(_.wallS))
    def heap(label: String) = median(timed.filter(_.label == label).map(_.peakHeapMb))
    Map(
      "gen_s" -> (wall("gen"), "s"),
      "base_s" -> (wall("base"), "s"),
      "fused_s" -> (wall("fused"), "s"),
      "gen_fa_s" -> (wall("gen_fa"), "s"),
      "gen_fnr_s" -> (wall("gen_fnr"), "s"),
      "gen_cold_s" -> (if (cold.error.isEmpty) cold.wallS else Double.NaN, "s"),
      "setup_s" -> (setupS, "s"),
      "gen_peak_heap_mb" -> (heap("gen"), "MB"),
      "base_peak_heap_mb" -> (heap("base"), "MB"),
      "fail_share" -> (failed.toDouble / attempted, "ratio"),
    )
  }

  /** Per-layer metrics of one traced pass. */
  private def layerValues(p: Pass, jobs: JobListener): Map[String, (Double, String)] = {
    val d = p.delta.get
    val groupTotals = p.groups.map(jobs.totalsOf)
    val passJobs = p.groups.flatMap(jobs.jobs)
    val jobMs = passJobs.map(j => math.max(0L, j.endMs - j.startMs)).sum.toDouble
    val codegenMs = d.codegen("codegen_ns") / 1e6
    val wallMs = p.wallS * 1e3
    val dist = Map(
      "dist.jobs" -> (passJobs.size.toDouble, "count"),
      "dist.tasks" -> (groupTotals.map(_.tasks).sum.toDouble, "count"),
      "dist.tasks_failed" -> (groupTotals.map(_.tasksFailed).sum.toDouble, "count"),
      "dist.job_ms" -> (jobMs, "ms"),
      "dist.task_ms" -> (groupTotals.map(_.taskMs).sum.toDouble, "ms"),
      "dist.task_deser_ms" -> (groupTotals.map(_.deserMs).sum.toDouble, "ms"),
      "dist.shuffle_write_mb" -> (groupTotals.map(_.shuffleWriteBytes).sum / MB, "MB"),
      "dist.result_mb" -> (groupTotals.map(_.resultBytes).sum / MB, "MB"),
    )
    val runtime = Map(
      "runtime.exec_ms" -> (wallMs - codegenMs - jobMs, "ms"),
      "runtime.cpu_util" -> (d.cpuNs / 1e6 / wallMs, "ratio"),
      "runtime.alloc_mb" -> (d.allocBytes / MB, "MB"),
      "runtime.gc_ms" -> (d.gcMs.toDouble, "ms"),
      "runtime.jit_ms" -> (d.jitMs.toDouble, "ms"),
      "algos.iterations" -> (p.iterations.toDouble, "count"),
    )
    val compiler =
      if (!GenLabels.contains(p.label)) Map.empty
      else {
        val c = d.codegen
        val hits = c("plan_cache_hits").toDouble
        val compiled = c("ops_compiled").toDouble
        Map(
          "compiler.javac_ms" -> (c("javac_ns") / 1e6, "ms"),
          "compiler.codegen_ms" -> (codegenMs, "ms"),
          "compiler.ops_compiled" -> (compiled, "count"),
          "compiler.plans_costed" -> (c("plans_costed").toDouble, "count"),
          "compiler.plans_skipped" -> (c("plans_skipped").toDouble, "count"),
          "compiler.dags" -> (c("dags").toDouble, "count"),
          "compiler.cplans" -> (c("cplans").toDouble, "count"),
          "compiler.plan_cache_hits" -> (hits, "count"),
          "compiler.plan_cache_hit_ratio" -> (if (hits + compiled > 0) hits / (hits + compiled) else 0.0, "ratio"),
        )
      }
    dist ++ runtime ++ compiler
  }

  /** `<layer>.<metric>.<pass>`: the median over the traced passes of each
    * mode (the cold pass is a single sample), plus the tracing overhead. */
  private def perLayer(passes: Seq[Pass],
                       passLayers: Map[Pass, Map[String, (Double, String)]]): Map[String, (Double, String)] = {
    val traced = passes.filter(p => p.traced && (p.round >= 0 || p.label == ColdLabel))
    val byLabel = AllLabels.flatMap { label =>
      val values = traced.filter(_.label == label).map(passLayers)
      values.headOption.toSeq.flatMap(_.keys).map { name =>
        s"$name.$label" -> (median(values.map(_(name)._1)), values.head(name)._2)
      }
    }.toMap
    val timed = passes.filter(p => p.round >= 0 && p.error.isEmpty)
    val pairs = Modes.map(_._1).map { l =>
      def med(t: Boolean) = median(timed.filter(p => p.label == l && p.traced == t).map(_.wallS))
      (med(true), med(false))
    }
    val overheadMs = pairs.map { case (t, u) => t - u }.sum * 1e3
    byLabel ++ Map(
      "trace.overhead_ms" -> (overheadMs, "ms"),
      "trace.overhead_share" -> (overheadMs / (pairs.map(_._2).sum * 1e3), "ratio"))
  }

  /** Spark jobs become child spans of the algorithm span whose job group
    * issued them; an algorithm span's self time excludes its jobs. */
  private def addJobSpans(spans: Spans, jobs: JobListener): Unit =
    spans.spans.filter(_.kind == "algo").foreach { a =>
      val js = jobs.jobs(a.attrs("job_group").toString)
      js.foreach { j =>
        val s = spans.add(a.id, "job", s"job ${j.id}", (j.startMs - spans.t0EpochMs).toDouble,
          (j.endMs - spans.t0EpochMs).toDouble)
        s.attrs("succeeded") = j.ok
      }
      val jobMs = js.map(j => math.max(0L, j.endMs - j.startMs)).sum
      a.attrs("self_ms") = (a.endMs - a.startMs) - jobMs
    }

  private def metricsJson(m: Map[String, (Double, String)]) =
    mutable.LinkedHashMap[String, Any]() ++ m.toSeq.sortBy(_._1).map { case (k, (v, u)) =>
      k -> mutable.LinkedHashMap[String, Any]("value" -> v, "unit" -> u)
    }

  // ---------------------------------------------------------------- helpers

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  private def write(path: String, s: String): Unit = {
    val p = Paths.get(path)
    Option(p.getParent).foreach(Files.createDirectories(_))
    Files.write(p, s.getBytes(StandardCharsets.UTF_8))
  }

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String, d: => String): String = m.getOrElse(k, d)
    def req(k: String): String = m.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    Opts(
      workload = req("workload"), seed = req("seed").toLong, seconds = req("seconds").toDouble,
      trace = req("trace") == "1", toy = get("toy", "0") == "1",
      out = req("out"), traceOut = req("trace-out"), gitSha = get("git-sha", "unknown"))
  }
}

