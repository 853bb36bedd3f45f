package repro.runtime

import java.util.concurrent.RecursiveTask
import org.apache.spark.TaskContext
import repro.runtime.Ops.{AggFunc, SumAgg}

/** Multi-threaded local kernels and skeletons (paper §2.2): a kernel runs
  * its one loop body over row ranges [rl, ru) of its main input, on the
  * JDK's common ForkJoinPool. A range writes disjoint rows of a shared
  * output or returns its own partial; partials come back in range order,
  * so a result never depends on thread timing. The sequential path is
  * the one-range case of the same loop. */
object RowRanges {

  /** Work below which a kernel runs as one range: the main input's
    * non-zeros or cells, times the inner dimension of a matmult. Below it,
    * handing ranges to pool threads costs more than it saves. */
  val MinWork: Long = 1L << 21

  /** Boundaries 0 = b(0) < … < b(k) = n of at most `availableProcessors`
    * ranges. One range when the work is below [[MinWork]], for fewer than
    * 2 rows, and inside a Spark task, whose executor already runs one task
    * per core. */
  def split(n: Int, work: Long): Array[Int] = {
    val k =
      if (work < MinWork || n < 2 || TaskContext.get() != null) 1
      else math.min(n, Runtime.getRuntime.availableProcessors)
    Array.tabulate(k + 1)(r => (n.toLong * r / k).toInt)
  }

  /** `body(rl, ru)` for each range of `split(n, work)`, the first on the
    * calling thread and the others on the common pool; results in range
    * order. */
  def map[T](n: Int, work: Long)(body: (Int, Int) => T): IndexedSeq[T] = {
    val b = split(n, work)
    val forked = (1 until b.length - 1).map { r =>
      new RecursiveTask[T] { def compute(): T = body(b(r), b(r + 1)) }.fork()
    }
    body(b(0), b(1)) +: forked.map(_.join())
  }

  def foreach(n: Int, work: Long)(body: (Int, Int) => Unit): Unit = { map(n, work)(body); () }

  /** The `len` values that `body(rl, ru, out)` writes over the ranges of
    * `split(n, work)`. Ranges that write `disjoint` values, their own
    * rows, share one array; other ranges each add into a zeroed partial
    * of their own, and the partials are summed in range order. */
  def fill(n: Int, work: Long, len: Int, disjoint: Boolean)(body: (Int, Int, Array[Double]) => Unit): Array[Double] =
    if (disjoint) {
      val out = new Array[Double](len)
      foreach(n, work)(body(_, _, out))
      out
    } else combine(map(n, work) { (rl, ru) =>
      val out = new Array[Double](len)
      body(rl, ru, out)
      out
    }, _ => SumAgg)

  /** The partials combined position by position in range order, position
    * `i` with `funcs(i)`, into the first. */
  def combine(partials: IndexedSeq[Array[Double]], funcs: Int => AggFunc): Array[Double] = {
    val p = partials.head
    partials.iterator.drop(1).foreach { q =>
      var i = 0
      while (i < p.length) { p(i) = funcs(i)(p(i), q(i)); i += 1 }
    }
    p
  }
}
