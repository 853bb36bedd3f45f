package repro.compiler

import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
import scala.util.control.NoStackTrace
import repro.core._
import repro.runtime._
import repro.runtime.Ops._

/** Code generation statistics (paper Table 3): compiled DAGs, CPlans of
  * executed fused operators, compiled operators, plan-cache hits, and
  * compile overhead. */
object CodegenStats {
  val dagsOptimized      = new AtomicLong
  val cplansConstructed  = new AtomicLong
  val operatorsCompiled  = new AtomicLong
  val planCacheHits      = new AtomicLong
  val codegenNanos       = new AtomicLong // total codegen step (explore + select + compile)
  val compileNanos       = new AtomicLong // operator class compilation only
  val plansEvaluated     = new AtomicLong // costed plans in MPSkipEnum
  val plansSkipped       = new AtomicLong // pruned plans in MPSkipEnum

  def reset(): Unit = Seq(dagsOptimized, cplansConstructed, operatorsCompiled,
    planCacheHits, codegenNanos, compileNanos, plansEvaluated, plansSkipped).foreach(_.set(0))
}

/** Generates the Java code of fused operators and compiles it.
  *
  * Per-operator Java source, compiled in memory with janino, as in the
  * paper (§2.1, Fig. 11). [[CPlan.construct]] calls [[emit]], the one gate
  * for what a fused operator can run, and the CPlan keeps its code. Generated
  * classes only override the template's `genexec`; data access and
  * aggregation live in the hand-coded skeletons
  * ([[repro.runtime.SpoofCellwise]] et al.), which run over row ranges; a
  * generated Row operator writes each row's result into the skeleton's
  * output as its variant says (paper §2.2). The class cache of
  * [[repro.runtime.JavaBackend]], keyed by the generated source, avoids
  * re-compilation across DAGs and dynamic recompilation (paper §2.1,
  * §5.3). Only classes are cached: the skeleton's parameters (aggregation,
  * sparse-safety, Row output shape) are not in the source, so every call
  * builds the skeleton fresh from its CPlan.
  */
object Codegen {

  /** `cplan`'s classes, cached or compiled now, in a fresh skeleton. */
  def compile(cplan: CPlan): SpoofOperator = {
    val t0 = System.nanoTime()
    val sources = cplan.sources
    // a miss if this call compiled any class: of several threads compiling
    // the same new source, only the one that compiled it counts it
    if (sources.map(JavaBackend.load).contains(true)) {
      CodegenStats.compileNanos.addAndGet(System.nanoTime() - t0)
      CodegenStats.operatorsCompiled.incrementAndGet()
    } else CodegenStats.planCacheHits.incrementAndGet()
    cplan.tpe match {
      case CellTpl  => new SpoofCellwise(cplan.cellVariant.get, cplan.sparseSafe, ExecRef(sources.head))
      case MAggTpl  => new SpoofMultiAgg(cplan.maggFuncs, cplan.sparseSafe, sources.map(ExecRef[CellExec]))
      case RowTpl   => new SpoofRowwise(cplan.rowVariant.get, cplan.root.rows.toInt, cplan.root.cols.toInt,
        cplan.byRow, ExecRef(sources.head))
      case OuterTpl => new SpoofOuterProduct(cplan.outerVariant.get, cplan.wIdx, ExecRef(sources.head))
    }
  }

  /** The emitter cannot generate a CPlan's code: [[CPlan.construct]] refuses it. */
  private[compiler] final class CannotEmit(msg: String) extends Exception(msg) with NoStackTrace
  private def refuse(msg: String): Nothing = throw new CannotEmit(msg)

  /** `draft` with its generated code: its genexec source(s), for each
    * input whether the code reads it by row of the main input or whole,
    * and for Row whether the sparse-row variant scatters the main row.
    * Throws [[CannotEmit]] where it cannot generate correct code. */
  private[compiler] def emit(draft: CPlan): CPlan = {
    val reads = new Reads
    val sources = draft.tpe match {
      case CellTpl  => IndexedSeq(cellSource(draft, draft.chainRoot, reads))
      case MAggTpl  => draft.roots.map(r => cellSource(draft, r.asInstanceOf[AggHop].in, reads))
      case RowTpl   => IndexedSeq(rowSource(draft, reads))
      case OuterTpl => IndexedSeq(outerSource(draft, reads))
    }
    draft.copy(sources = sources, byRow = draft.inputs.indices.map(reads.byRow), scattersMainRow = reads.scatters)
  }

  /** What the generated code reads of each input, by row of the main input
    * (index 0) or whole, refusing an input read both ways; and whether a
    * Row operator's sparse-row variant scatters the main row. */
  private final class Reads {
    private val rowRead = mutable.Map(0 -> true)
    var scatters = false
    def apply(k: Int, byRow: Boolean): Unit =
      if (rowRead.getOrElseUpdate(k, byRow) != byRow) refuse(s"input $k read both by row and whole")
    def byRow(k: Int): Boolean = rowRead.getOrElse(k, false)
  }

  private def unaryJava(op: UnaryOp, x: String): String = op match {
    case Exp     => s"Math.exp($x)"
    case Log     => s"Math.log($x)"
    case Sqrt    => s"Math.sqrt($x)"
    case Abs     => s"Math.abs($x)"
    case Sign    => s"Math.signum($x)"
    case Neg     => s"(-$x)"
    case Sigmoid => s"(1.0 / (1.0 + Math.exp(-$x)))"
    case Neq0    => s"(($x != 0.0) ? 1.0 : 0.0)"
    case Pow2    => s"($x * $x)"
  }

  private def binaryJava(op: BinaryOp, x: String, y: String): String = op match {
    case Plus  => s"($x + $y)"
    case Minus => s"($x - $y)"
    case Mult  => s"($x * $y)"
    case Div   => s"($x / $y)"
    case Pow   => s"Math.pow($x, $y)"
    case MinOp => s"Math.min($x, $y)"
    case MaxOp => s"Math.max($x, $y)"
    case Neq   => s"(($x != $y) ? 1.0 : 0.0)"
    case Eq    => s"(($x == $y) ? 1.0 : 0.0)"
    case Gt    => s"(($x > $y) ? 1.0 : 0.0)"
    case Lt    => s"(($x < $y) ? 1.0 : 0.0)"
    case Ge    => s"(($x >= $y) ? 1.0 : 0.0)"
    case Le    => s"(($x <= $y) ? 1.0 : 0.0)"
  }

  /** One operator's emission: its code so far and what it reads. */
  private class Src(val cplan: CPlan, val reads: Reads, val prefix: String = "") {
    val body = new StringBuilder
    val fields = new StringBuilder
    private var n = 0
    val memo = mutable.Map[Long, String]() // hop id -> local var (CSE inside the operator)
    def fresh(): String = { n += 1; s"${prefix}TMP$n" }
    def line(s: String): Unit = body.append("    ").append(s).append('\n')
    /** A vector temporary backed by a reused instance field (the paper's
      * per-thread ring buffer for row intermediates). */
    def buf(lenExpr: String): String = {
      val t = fresh()
      fields.append(s"  private double[] ${t}F;\n")
      line(s"if (${t}F == null || ${t}F.length != ($lenExpr)) ${t}F = new double[$lenExpr];")
      line(s"double[] $t = ${t}F;")
      t
    }
    /** The index of input `h`, recorded as read by row or whole. */
    def input(h: Hop, byRow: Boolean): Int = {
      val k = cplan.inputs.indexWhere(_ eq h)
      if (k < 0) refuse(s"input $h not bound in CPlan inputs ${cplan.inputs}")
      reads(k, byRow)
      k
    }
    /** Side input `h` at cell (rix, cix), broadcast over its dimensions of 1. */
    def cell(h: Hop): String = {
      val k = input(h, h.rows > 1)
      val t = fresh()
      line(s"double $t = b[$k].get(${sideIdx(h)});")
      t
    }
  }

  private def header(parent: String): String =
    "package repro.codegen;\nimport repro.runtime.MatrixBlock;\nimport repro.runtime.VectorPrims;\n" +
      s"public final class ${JavaBackend.ClassName} extends repro.runtime.$parent {\n"

  /** Broadcast-resolved (rix, cix) access for a side input. */
  private def sideIdx(h: Hop): String =
    if (h.rows == 1 && h.cols == 1) "0, 0"
    else if (h.cols == 1) "rix, 0"
    else if (h.rows == 1) "0, cix"
    else "rix, cix"

  // ---------------------------------------------------------------- Cell

  private def cellSource(cplan: CPlan, chainRoot: Hop, reads: Reads): String = {
    val src = new Src(cplan, reads)
    val root = emitCell(chainRoot, src)
    header("CellExec") +
      "  public double genexec(double a, MatrixBlock[] b, int rix, int cix) {\n" +
      src.body.toString +
      s"    return $root;\n  }\n}\n"
  }

  /** Emit SSA-style Java for a cell chain; returns the value expression. */
  private def emitCell(h: Hop, src: Src): String = {
    if (h eq src.cplan.inputs(0)) return "a"
    src.memo.get(h.id).foreach(return _)
    val v =
      if (!src.cplan.covered.contains(h.id)) src.cell(h)
      else h match {
        case u: UnaryHop =>
          val x = emitCell(u.in, src)
          val t = src.fresh()
          src.line(s"double $t = ${unaryJava(u.op, x)};")
          t
        case bin: BinaryHop =>
          val x = emitCell(bin.left, src)
          val y = emitCell(bin.right, src)
          val t = src.fresh()
          src.line(s"double $t = ${binaryJava(bin.op, x, y)};")
          t
        case _ => refuse(s"unsupported hop in Cell chain: $h")
      }
    src.memo(h.id) = v
    v
  }

  // ----------------------------------------------------------------- Row

  /** One row's value of a Row-chain node: a per-row scalar expression, a
    * dense vector arr[off, off + len), or the sparse main row in place. */
  private sealed trait RowVal
  private final case class Scal(expr: String) extends RowVal
  private final case class Vec(arr: String, off: String, len: String) extends RowVal {
    def at(i: String): String = if (off == "0") s"$arr[$i]" else s"$arr[$off + $i]"
  }
  private case object SparseRow extends RowVal
  private val sparseRow = "avals, aix, apos, alen"

  /** Row emission state on top of [[Src]]: the value of each emitted hop,
    * and the sparse main row once scattered into a ring buffer. */
  private final class RowSrc(prefix: String, cplan: CPlan, reads: Reads, val main: RowVal)
      extends Src(cplan, reads, prefix) {
    val values = mutable.Map[Long, RowVal]()
    var scattered: Option[Vec] = None
    def local(x: String): String = { val t = fresh(); line(s"double $t = $x;"); t }
    def vec(t: String): Vec = Vec(t, "0", s"$t.length")
    /** A new ring-buffer vector with element i_ given by `f` over `len` values. */
    def loop(len: String)(f: String => String): Vec = {
      val t = buf(len)
      line(s"for (int i_ = 0; i_ < $t.length; i_++) $t[i_] = ${f("i_")};")
      vec(t)
    }
    /** `v` as a dense vector: the sparse main row is scattered at its
      * first element-wise consumer, once per row. */
    def dense(v: RowVal): Vec = v match {
      case d: Vec => d
      case SparseRow => scattered.getOrElse {
        val t = buf("len")
        line(s"VectorPrims.vectScatter($sparseRow, $t);")
        reads.scatters = true
        scattered = Some(vec(t))
        scattered.get
      }
      case Scal(x) => refuse(s"per-row scalar $x where a vector is expected")
    }
    def sum(v: RowVal): String = v match {
      case Scal(x)   => x
      case SparseRow => "VectorPrims.vectSum(avals, apos, alen)"
      case d: Vec    => s"VectorPrims.vectSum(${d.arr}, ${d.off}, ${d.len})"
    }
  }

  /** Both genexec variants of a Row operator, from one emitter: the dense
    * one reads the main row in place as (a, ai, len), the sparse one as its
    * non-zeros. Each writes its row's result into the output `c`. The
    * skeleton iterates the main input's rows, so they must be the
    * operator's. */
  private def rowSource(cplan: CPlan, reads: Reads): String = {
    if (cplan.inputs(0).rows != cplan.rowDim) refuse(s"main input ${cplan.inputs(0)} not row-aligned")
    val variants = Seq(
      new RowSrc("D", cplan, reads, Vec("a", "ai", "len")) -> "double[] a, int ai",
      new RowSrc("S", cplan, reads, SparseRow) -> "double[] avals, int[] aix, int apos, int alen")
    val methods = variants.map { case (src, params) =>
      emitRowOutput(src)
      s"  public void genexec($params, MatrixBlock[] b, double[] c, int rix, int len) {\n" +
        src.body.toString + "  }\n"
    }
    header("RowExec") + variants.map(_._1.fields).mkString + methods.mkString + "}\n"
  }

  /** Emit the row's result and its write into `c`, as the variant says.
    * Column and full aggregates add up the rows' results: only sums do. */
  private def emitRowOutput(src: RowSrc): Unit = {
    val cplan = src.cplan
    def emit(h: Hop) = emitRow(h, src)
    cplan.rowVariant.get match {
      case RowColAgg | RowFullAgg if cplan.root.asInstanceOf[AggHop].func != SumAgg =>
        refuse(s"Row operator rooted at a non-sum aggregate ${cplan.root}")
      case RowNoAgg =>
        val d = src.dense(emit(cplan.chainRoot))
        src.line(s"System.arraycopy(${d.arr}, ${d.off}, c, rix * ${d.len}, ${d.len});")
      case RowRowAgg  => src.line(s"c[rix] = ${src.sum(emit(cplan.root))};")
      case RowFullAgg => src.line(s"c[0] += ${src.sum(emit(cplan.chainRoot))};")
      case RowColAgg => emit(cplan.chainRoot) match {
        case Scal(x)   => src.line(s"c[0] += $x;")
        case SparseRow => src.line(s"VectorPrims.vectAdd($sparseRow, c);")
        case d: Vec    => src.line(s"VectorPrims.vectAdd(${d.arr}, ${d.off}, c, 0, ${d.len});")
      }
      case RowColAggT =>
        // t(X) %*% Z: c += outer(row of X, row of Z)
        val m = cplan.root.asInstanceOf[MatMulHop]
        val x = emitXSide(m.left.asInstanceOf[TransposeHop], src)
        (x, emit(m.right)) match {
          case (SparseRow, Scal(zs)) => src.line(s"VectorPrims.vectMultAdd(avals, $zs, c, aix, apos, 0, alen);")
          case (SparseRow, z) =>
            val d = src.dense(z)
            src.line(s"VectorPrims.vectOuterMultAdd($sparseRow, ${d.arr}, c, ${d.off}, ${d.len});")
          case (xv, Scal(zs)) =>
            val d = src.dense(xv)
            src.line(s"VectorPrims.vectMultAdd(${d.arr}, $zs, c, ${d.off}, 0, ${d.len});")
          case (xv, z) =>
            val (dx, dz) = (src.dense(xv), src.dense(z))
            src.line(s"VectorPrims.vectOuterMultAdd(${dx.arr}, ${dz.arr}, c, ${dx.off}, ${dz.off}, ${dx.len}, ${dz.len});")
        }
    }
  }

  /** The x-side row of t(X) %*% Z: row rix of X, which is column rix of a
    * materialized t(X), read whole. */
  private def emitXSide(t: TransposeHop, src: RowSrc): RowVal =
    if (src.cplan.covered.contains(t.id)) emitRow(t.in, src)
    else {
      val k = src.input(t, byRow = false)
      src.loop(s"b[$k].rows()")(i => s"b[$k].get($i, rix)")
    }

  /** Emit a Row-chain node for the current row. A side input is read as a
    * scalar or row vector (whole), by row if row-aligned, or whole as a
    * matmult's right operand. */
  private def emitRow(h: Hop, src: RowSrc): RowVal = {
    val cplan = src.cplan
    if (h eq cplan.inputs(0)) return src.main
    src.values.get(h.id).foreach(return _)
    def emit(x: Hop) = emitRow(x, src)
    val result: RowVal =
      if (!cplan.covered.contains(h.id)) {
        if (h.rows != 1 && h.rows != cplan.rowDim) refuse(s"non row-aligned side input in Row chain: $h")
        val k = src.input(h, h.rows != 1)
        if (h.rows == 1 && h.cols == 1) Scal(s"b[$k].get(0, 0)")
        else if (h.cols == 1) Scal(s"b[$k].get(rix, 0)")
        else {
          val t = src.buf(s"b[$k].cols()")
          src.line(s"b[$k].copyRow(${if (h.rows == 1) "0" else "rix"}, $t);")
          src.vec(t)
        }
      }
      else h match {
        case u: UnaryHop => emit(u.in) match {
          case Scal(x) => Scal(unaryJava(u.op, x))
          case v =>
            val d = src.dense(v)
            src.loop(d.len)(i => unaryJava(u.op, d.at(i)))
        }
        case bin: BinaryHop => (emit(bin.left), emit(bin.right)) match {
          case (Scal(x), Scal(y)) => Scal(binaryJava(bin.op, x, y))
          case (l, Scal(y)) =>
            val (d, sv) = (src.dense(l), src.local(y))
            src.loop(d.len)(i => binaryJava(bin.op, d.at(i), sv))
          case (Scal(x), r) =>
            val (sv, d) = (src.local(x), src.dense(r))
            src.loop(d.len)(i => binaryJava(bin.op, sv, d.at(i)))
          case (l, r) =>
            val (dl, dr) = (src.dense(l), src.dense(r))
            src.loop(dl.len)(i => binaryJava(bin.op, dl.at(i), dr.at(i)))
        }
        case a: AggHop if a.dir == RowDir => emit(a.in) match {
          case s: Scal => s // the row aggregate of a per-row scalar is itself
          case v if a.func == SumAgg => Scal(src.local(src.sum(v)))
          case v =>
            val d = src.dense(v)
            val (init, f) = if (a.func == MinAgg) ("Double.POSITIVE_INFINITY", "min") else ("Double.NEGATIVE_INFINITY", "max")
            val t = src.local(init)
            src.line(s"for (int i_ = 0; i_ < ${d.len}; i_++) $t = Math.$f($t, ${d.at("i_")});")
            Scal(t)
        }
        case m: MatMulHop =>
          // a narrow matmult: the right operand is an input other than the
          // main, read whole
          val k = src.input(m.right, byRow = false)
          val bv = s"b[$k].toDense().values()"
          val cols = s"b[$k].cols()"
          (emit(m.left), m.right.cols == 1) match {
            case (Scal(x), true)  => Scal(s"($x * b[$k].get(0, 0))")
            case (Scal(x), false) => // outer product: the scalar times B's one row
              val sv = src.local(x)
              src.loop(cols)(i => s"$sv * $bv[$i]")
            case (SparseRow, true) =>
              Scal(src.local(s"VectorPrims.dotProduct(avals, $bv, aix, apos, 0, alen)"))
            case (SparseRow, false) =>
              val t = src.buf(cols)
              src.line(s"VectorPrims.vectMatMultWrite($sparseRow, $bv, $t, $cols);")
              src.vec(t)
            case (d: Vec, true) =>
              Scal(src.local(s"VectorPrims.dotProduct(${d.arr}, $bv, ${d.off}, 0, ${d.len})"))
            case (d: Vec, false) =>
              val t = src.buf(cols)
              src.line(s"VectorPrims.vectMatMultWrite(${d.arr}, ${d.off}, $bv, $t, ${d.len}, $cols);")
              src.vec(t)
          }
        case _ => refuse(s"unsupported hop in Row chain: $h")
      }
    src.values(h.id) = result
    result
  }

  // --------------------------------------------------------------- Outer

  /** The Outer skeleton reads the driver X (index 0) and U (index 1) by
    * row and V (index 2) whole; W, t(chain) %*% W's by row and chain %*%
    * W's whole. */
  private def outerSource(cplan: CPlan, reads: Reads): String = {
    reads(1, byRow = true)
    reads(2, byRow = false)
    if (cplan.wIdx >= 0) reads(cplan.wIdx, cplan.outerVariant.contains(OuterLeftMM))
    val src = new Src(cplan, reads)
    src.line("int R_ = b[2].cols();") // rank, read from V at runtime
    val root = emitOuter(cplan.chainRoot, cplan.opening.get, src)
    header("OuterExec") +
      "  public double genexec(double x, double[] u, double[] v, MatrixBlock[] b, int rix, int cix) {\n" +
      src.body.toString +
      s"    return $root;\n  }\n}\n"
  }

  private def emitOuter(h: Hop, opening: MatMulHop, src: Src): String = {
    if (h eq src.cplan.inputs(0)) return "x"
    src.memo.get(h.id).foreach(return _)
    val v =
      if (h eq opening) {
        val t = src.fresh()
        src.line(s"double $t = VectorPrims.dotProduct(u, v, rix * R_, cix * R_, R_);")
        t
      }
      else if (!src.cplan.covered.contains(h.id)) src.cell(h)
      else h match {
        case u: UnaryHop  => unaryJava(u.op, emitOuter(u.in, opening, src))
        case bn: BinaryHop =>
          binaryJava(bn.op,
            emitOuter(bn.left, opening, src),
            emitOuter(bn.right, opening, src))
        case t: TransposeHop => emitOuter(t.in, opening, src)
        case _ => refuse(s"unsupported hop in Outer chain: $h")
      }
    src.memo(h.id) = v
    v
  }
}
