package repro.compiler

import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
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

/** Compiles CPlans into executable fused operators.
  *
  * Per-operator Java source, compiled in memory with janino, as in the
  * paper (§2.1, Fig. 11). Generated classes only override the template's
  * `genexec`; data access and aggregation live in the hand-coded
  * skeletons ([[repro.runtime.SpoofCellwise]] et al.), each of which runs
  * on one thread, except that a generated Row operator writes each row's
  * result into the skeleton's output as its variant says (paper §2.2).
  * The class cache of [[repro.runtime.JavaBackend]], keyed by the
  * generated source, identifies equivalent CPlans and avoids
  * re-compilation across DAGs and dynamic recompilation (paper §2.1,
  * §5.3). Only classes are cached: the skeleton's parameters (Cell and
  * MAgg aggregation, sparse-safety, Row output shape) are not part of the
  * source, so every call builds the skeleton fresh from its CPlan.
  */
object Codegen {

  def compile(cplan: CPlan): SpoofOperator = {
    val t0 = System.nanoTime()
    lazy val (rowSrc, wholeInputs) = rowSource(cplan)
    val sources = cplan.tpe match {
      case CellTpl  => IndexedSeq(cellSource(cplan, cplan.chainRoot))
      case MAggTpl  => cplan.roots.map(r => cellSource(cplan, r.asInstanceOf[AggHop].in))
      case RowTpl   => IndexedSeq(rowSrc)
      case OuterTpl => IndexedSeq(outerSource(cplan))
    }
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
        wholeInputs, ExecRef(sources.head))
      case OuterTpl => new SpoofOuterProduct(cplan.outerVariant.get, cplan.wIdx, ExecRef(sources.head))
    }
  }

  private def inputIndex(h: Hop, cplan: CPlan): Int = {
    val idx = cplan.inputs.indexWhere(_ eq h)
    if (idx < 0) throw new IllegalStateException(s"input $h not bound in CPlan inputs ${cplan.inputs}")
    idx
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

  private class Src(val prefix: String = "") {
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
  }

  private def header(parent: String): String =
    "package repro.codegen;\nimport repro.runtime.MatrixBlock;\nimport repro.runtime.VectorPrims;\n" +
      s"public final class ${JavaBackend.ClassName} extends repro.runtime.$parent {\n"

  // ---------------------------------------------------------------- Cell

  private def cellSource(cplan: CPlan, chainRoot: Hop): String = {
    val src = new Src
    val root = emitCell(chainRoot, cplan, src)
    header("CellExec") +
      "  public double genexec(double a, MatrixBlock[] b, int rix, int cix) {\n" +
      src.body.toString +
      s"    return $root;\n  }\n}\n"
  }

  /** Emit SSA-style Java for a cell chain; returns the value expression. */
  private def emitCell(h: Hop, cplan: CPlan, src: Src): String = {
    val main = cplan.inputs(0)
    if (h eq main) return "a"
    src.memo.get(h.id).foreach(return _)
    val v =
      if (!cplan.covered.contains(h.id)) {
        val k = inputIndex(h, cplan)
        val t = src.fresh()
        src.line(s"double $t = b[$k].get(${sideIdx(h)});")
        t
      }
      else h match {
        case u: UnaryHop =>
          val x = emitCell(u.in, cplan, src)
          val t = src.fresh()
          src.line(s"double $t = ${unaryJava(u.op, x)};")
          t
        case bin: BinaryHop =>
          val x = emitCell(bin.left, cplan, src)
          val y = emitCell(bin.right, cplan, src)
          val t = src.fresh()
          src.line(s"double $t = ${binaryJava(bin.op, x, y)};")
          t
        case _ => throw new IllegalStateException(s"unsupported hop in Cell chain: $h")
      }
    src.memo(h.id) = v
    v
  }

  /** Broadcast-resolved (rix, cix) access for a side input. */
  private def sideIdx(h: Hop): String =
    if (h.rows == 1 && h.cols == 1) "0, 0"
    else if (h.cols == 1) "rix, 0"
    else if (h.rows == 1) "0, cix"
    else "rix, cix"

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
    * the sparse main row once scattered into a ring buffer, and the inputs
    * read whole rather than by row. */
  private final class RowSrc(prefix: String, val cplan: CPlan, val main: RowVal) extends Src(prefix) {
    val values = mutable.Map[Long, RowVal]()
    val whole = mutable.Set[Int]()
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
        scattered = Some(vec(t))
        scattered.get
      }
      case Scal(x) => throw new IllegalStateException(s"per-row scalar $x where a vector is expected")
    }
    def sum(v: RowVal): String = v match {
      case Scal(x)   => x
      case SparseRow => "VectorPrims.vectSum(avals, apos, alen)"
      case d: Vec    => s"VectorPrims.vectSum(${d.arr}, ${d.off}, ${d.len})"
    }
  }

  /** Both genexec variants of a Row operator, from one emitter: the dense
    * one reads the main row in place as (a, ai, len), the sparse one as its
    * non-zeros. Each writes its row's result into the output `c`. Also
    * returns the indexes of the inputs the code reads whole: a matmult's
    * right operand and a materialized t(X). */
  private def rowSource(cplan: CPlan): (String, Set[Int]) = {
    val variants = Seq(
      new RowSrc("D", cplan, Vec("a", "ai", "len")) -> "double[] a, int ai",
      new RowSrc("S", cplan, SparseRow) -> "double[] avals, int[] aix, int apos, int alen")
    val methods = variants.map { case (src, params) =>
      emitRowOutput(src)
      s"  public void genexec($params, MatrixBlock[] b, double[] c, int rix, int len) {\n" +
        src.body.toString + "  }\n"
    }
    (header("RowExec") + variants.map(_._1.fields).mkString + methods.mkString + "}\n",
      variants.flatMap(_._1.whole).toSet)
  }

  /** Emit the row's result and its write into `c`, as the variant says. */
  private def emitRowOutput(src: RowSrc): Unit = {
    val cplan = src.cplan
    def emit(h: Hop) = emitRow(h, src)
    cplan.rowVariant.get match {
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
    * materialized t(X). */
  private def emitXSide(t: TransposeHop, src: RowSrc): RowVal =
    if (src.cplan.covered.contains(t.id)) emitRow(t.in, src)
    else {
      val k = inputIndex(t, src.cplan)
      src.whole += k
      src.loop(s"b[$k].rows()")(i => s"b[$k].get($i, rix)")
    }

  /** Emit a Row-chain node for the current row. */
  private def emitRow(h: Hop, src: RowSrc): RowVal = {
    val cplan = src.cplan
    if (h eq cplan.inputs(0)) return src.main
    src.values.get(h.id).foreach(return _)
    def emit(x: Hop) = emitRow(x, src)
    val result: RowVal =
      if (!cplan.covered.contains(h.id)) {
        val k = inputIndex(h, cplan)
        if (h.rows == 1 && h.cols == 1) Scal(s"b[$k].get(0, 0)")
        else if (h.rows == cplan.rowDim && h.cols == 1) Scal(s"b[$k].get(rix, 0)")
        else if (h.rows == 1 || h.rows == cplan.rowDim) {
          val t = src.buf(s"b[$k].cols()")
          src.line(s"b[$k].copyRow(${if (h.rows == 1) "0" else "rix"}, $t);")
          src.vec(t)
        }
        else throw new IllegalStateException(s"non row-aligned side input in Row chain: $h")
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
          // a narrow matmult: the right operand is an input, read whole
          val k = inputIndex(m.right, cplan)
          src.whole += k
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
        case _ => throw new IllegalStateException(s"unsupported hop in Row chain: $h")
      }
    src.values(h.id) = result
    result
  }

  // --------------------------------------------------------------- Outer

  private def outerSource(cplan: CPlan): String = {
    val src = new Src
    src.line("int R_ = b[2].cols();") // rank, read from V at runtime
    val root = emitOuter(cplan.chainRoot, cplan, cplan.opening.get, src)
    header("OuterExec") +
      "  public double genexec(double x, double[] u, double[] v, MatrixBlock[] b, int rix, int cix) {\n" +
      src.body.toString +
      s"    return $root;\n  }\n}\n"
  }

  private def emitOuter(h: Hop, cplan: CPlan, opening: MatMulHop, src: Src): String = {
    val main = cplan.inputs(0)
    if (h eq main) return "x"
    src.memo.get(h.id).foreach(return _)
    val v =
      if (h eq opening) {
        val t = src.fresh()
        src.line(s"double $t = VectorPrims.dotProduct(u, v, rix * R_, cix * R_, R_);")
        t
      }
      else if (!cplan.covered.contains(h.id)) {
        val k = inputIndex(h, cplan)
        val t = src.fresh()
        src.line(s"double $t = b[$k].get(${sideIdx(h)});")
        t
      }
      else h match {
        case u: UnaryHop  => unaryJava(u.op, emitOuter(u.in, cplan, opening, src))
        case bn: BinaryHop =>
          binaryJava(bn.op,
            emitOuter(bn.left, cplan, opening, src),
            emitOuter(bn.right, cplan, opening, src))
        case t: TransposeHop => emitOuter(t.in, cplan, opening, src)
        case _ => throw new IllegalStateException(s"unsupported hop in Outer chain: $h")
      }
    src.memo(h.id) = v
    v
  }
}
