package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.{Success => TaskSuccess}
import org.apache.spark.scheduler._
import repro.compiler.CodegenStats

/** Process-level readings taken from outside the program: heap pools,
  * CPU time, allocated bytes, GC and JIT time, and the codegen counters. */
object JvmProbe {
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).toSeq
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val threads = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]

  /** Collect garbage, then restart every heap pool's peak at its current use. */
  def resetPeaks(): Unit = {
    System.gc()
    heapPools.foreach(_.resetPeakUsage())
  }

  def peakHeapBytes: Long = heapPools.map(_.getPeakUsage.getUsed).sum

  /** Bytes allocated so far by every live thread. */
  def allocatedBytes: Long = {
    val ids = threads.getAllThreadIds
    threads.getThreadAllocatedBytes(ids).filter(_ > 0).sum
  }

  def gcMillis: Long = gcs.map(g => math.max(0L, g.getCollectionTime)).sum

  def cpuNanos: Long = os.getProcessCpuTime

  /** Time the JIT compiler threads have spent compiling, in ms. */
  def jitMillis: Long = ManagementFactory.getCompilationMXBean.getTotalCompilationTime

  /** Counters of one moment; `minus` gives the deltas over a pass. */
  final case class Snapshot(cpuNs: Long, allocBytes: Long, gcMs: Long, jitMs: Long, codegen: Map[String, Long]) {
    def minus(o: Snapshot): Snapshot = Snapshot(cpuNs - o.cpuNs, allocBytes - o.allocBytes,
      gcMs - o.gcMs, jitMs - o.jitMs, codegen.map { case (k, v) => k -> (v - o.codegen(k)) })
  }

  def snapshot(): Snapshot = Snapshot(cpuNanos, allocatedBytes, gcMillis, jitMillis, Map(
    "dags"           -> CodegenStats.dagsOptimized.get,
    "cplans"         -> CodegenStats.cplansConstructed.get,
    "ops_compiled"   -> CodegenStats.operatorsCompiled.get,
    "plan_cache_hits" -> CodegenStats.planCacheHits.get,
    "codegen_ns"     -> CodegenStats.codegenNanos.get,
    "javac_ns"       -> CodegenStats.compileNanos.get,
    "plans_costed"   -> CodegenStats.plansEvaluated.get,
    "plans_skipped"  -> CodegenStats.plansSkipped.get,
  ))
}

/** Spark jobs and tasks, attributed to the job group that submitted them.
  * The benchmark sets one job group per algorithm span, so every job nests
  * under the algorithm call that issued it. Events arrive asynchronously;
  * read the totals only after the SparkContext has stopped, which drains
  * the listener bus. */
final class JobListener extends SparkListener {
  final case class Job(id: Int, group: String, startMs: Long, var endMs: Long = -1L, var ok: Boolean = false)
  final class GroupTotals {
    var tasks = 0L; var tasksFailed = 0L; var taskMs = 0L; var deserMs = 0L
    var shuffleWriteBytes = 0L; var resultBytes = 0L
  }

  private val jobsById = mutable.LinkedHashMap[Int, Job]()
  private val stageGroup = mutable.Map[Int, String]()
  private val totals = mutable.Map[String, GroupTotals]()

  private def groupOf(props: java.util.Properties): String =
    Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = groupOf(e.properties)
    e.stageIds.foreach(stageGroup(_) = g)
    jobsById(e.jobId) = Job(e.jobId, g, e.time)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobsById.get(e.jobId).foreach { j =>
      j.endMs = e.time
      j.ok = e.jobResult == JobSucceeded
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val t = totals.getOrElseUpdate(stageGroup.getOrElse(e.stageId, ""), new GroupTotals)
    t.tasks += 1
    if (e.reason != TaskSuccess) t.tasksFailed += 1
    t.taskMs += e.taskInfo.duration
    Option(e.taskMetrics).foreach { m =>
      t.deserMs += m.executorDeserializeTime
      t.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      t.resultBytes += m.resultSize
    }
  }

  def jobs(group: String): Seq[Job] = synchronized(jobsById.values.filter(_.group == group).toSeq)

  def totalsOf(group: String): GroupTotals = synchronized(totals.getOrElse(group, new GroupTotals))
}

/** In-memory span recorder; written out once, when the run ends. Times
  * are milliseconds since the recorder was created. */
final class Spans(val runId: String) {
  final case class Span(id: Int, parent: Int, kind: String, name: String,
                        startMs: Double, var endMs: Double = Double.NaN,
                        attrs: mutable.LinkedHashMap[String, Any] = mutable.LinkedHashMap())

  private val t0Nanos = System.nanoTime()
  /** Wall-clock origin, for events (Spark jobs) stamped in epoch millis. */
  val t0EpochMs: Long = System.currentTimeMillis()
  private val all = mutable.ArrayBuffer[Span]()

  def nowMs: Double = (System.nanoTime() - t0Nanos) / 1e6

  def open(parent: Int, kind: String, name: String): Span = {
    val s = Span(all.size + 1, parent, kind, name, nowMs)
    all += s
    s
  }

  def close(s: Span): Unit = s.endMs = nowMs

  def add(parent: Int, kind: String, name: String, startMs: Double, endMs: Double): Span = {
    val s = Span(all.size + 1, parent, kind, name, startMs, endMs)
    all += s
    s
  }

  def spans: Seq[Span] = all.toSeq

  def toJson: Seq[Any] = all.toSeq.map { s =>
    mutable.LinkedHashMap[String, Any](
      "run_id" -> runId, "id" -> s.id, "parent" -> s.parent, "kind" -> s.kind, "name" -> s.name,
      "start_ms" -> s.startMs, "end_ms" -> s.endMs) ++ s.attrs
  }
}
