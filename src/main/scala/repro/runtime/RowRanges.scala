package repro.runtime

import java.util.concurrent.RecursiveTask
import org.apache.spark.TaskContext
import repro.runtime.Ops.AggFunc

/** What a kernel over the rows of its main input writes, the same per row
  * range of a local block and per row block of a distributed one: for a
  * fused operator, [[repro.compiler.CPlan.output]] derives it from the
  * operator's variant. */
sealed trait Output extends Serializable
/** Each main-input row yields one output row of `cols` values, with the
  * given sparsity: row ranges and row blocks each write their own rows. */
final case class RowAligned(cols: Int, sparsity: Double) extends Output
/** A `rows x cols` aggregate: each row range or row block yields a
  * partial, and the partials combine position by position, position `i`
  * with `funcs(i)`, in range or block order ([[RowRanges.combine]]). */
final case class Aggregate(rows: Int, cols: Int, funcs: Int => AggFunc) extends Output

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

  /** The output `out` that `body(rl, ru, values)` writes over the ranges
    * of `split(n, work)`, `n` rows of the main input. Ranges of a
    * [[RowAligned]] output write their own rows of one shared array; each
    * range of an [[Aggregate]] folds into a zeroed partial of its own (a
    * `body` that folds other than sums sets the initial values), and the
    * partials are combined in range order. */
  def fill(n: Int, work: Long, out: Output)(body: (Int, Int, Array[Double]) => Unit): DenseBlock = out match {
    case RowAligned(cols, _) =>
      val values = new Array[Double](n * cols)
      foreach(n, work)(body(_, _, values))
      new DenseBlock(n, cols, values)
    case Aggregate(rows, cols, funcs) =>
      new DenseBlock(rows, cols, combine(map(n, work) { (rl, ru) =>
        val partial = new Array[Double](rows * cols)
        body(rl, ru, partial)
        partial
      }, funcs))
  }

  /** The partials combined position by position in the order given, row
    * ranges' or row blocks', position `i` with `funcs(i)`, into the first:
    * the one combine of every partial aggregate, local or distributed. */
  def combine(partials: IndexedSeq[Array[Double]], funcs: Int => AggFunc): Array[Double] = {
    val p = partials.head
    partials.iterator.drop(1).foreach { q =>
      var i = 0
      while (i < p.length) { p(i) = funcs(i)(p(i), q(i)); i += 1 }
    }
    p
  }
}
