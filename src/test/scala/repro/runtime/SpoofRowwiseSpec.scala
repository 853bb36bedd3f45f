package repro.runtime

import repro.{SparkSpec, TestLA}
import repro.compiler._
import repro.core._

/** The Row skeleton hands each main row in place to the generated
  * operator: a dense row by offset, a sparse row by its non-zeros, and a
  * compressed main decompressed once. Every variant gives one result over
  * the three formats of one X. */
class SpoofRowwiseSpec extends SparkSpec {

  /** 30 x 12 with ~30 % non-zeros, rows 0 and 5 empty and row 7 full. */
  private val xDense: DenseBlock = {
    val rng = new java.util.SplittableRandom(11)
    MatrixBlock.tabulate(30, 12) { (i, _) =>
      val keep = i == 7 || (i != 0 && i != 5 && rng.nextDouble() < 0.3)
      if (keep) rng.nextDouble() * 2 - 1 else 0.0
    }
  }
  private val formats: Seq[(String, MatrixBlock)] = Seq(
    "dense" -> xDense, "sparse" -> xDense.toSparse, "compressed" -> CompressedBlock.compress(xDense))

  private val sides: Map[String, MatrixBlock] = Map(
    "v" -> MatrixBlock.rand(12, 1, 1.0, 12, min = -1, max = 1),
    "W" -> MatrixBlock.rand(12, 3, 1.0, 13, min = -1, max = 1),
    "y" -> MatrixBlock.rand(30, 1, 1.0, 14, min = -1, max = 1))

  /** One DAG per variant; each reads X both in place and scattered. */
  private val dags: Seq[(RowVariant, (MX, String => MX) => MX)] = Seq(
    RowNoAgg   -> { (x, in) => (x.abs %*% in("W")) + (x %*% in("W")) },
    RowRowAgg  -> { (x, in) => x.rowSums + (x * in("y")).rowMaxs },
    RowColAgg  -> { (x, in) => (x * in("y")).colSums },
    RowFullAgg -> { (x, in) => ((x %*% in("W")) * (x.abs %*% in("W"))).sum },
    RowColAggT -> { (x, in) => x.t %*% (in("y") * (x %*% in("v"))) })

  for ((variant, dag) <- dags) test(s"$variant gives one result over dense, sparse and compressed X") {
    val ctx = new ExecContext(GenMode(CostBased))
    val root = dag(ctx.bindLocal("X", formats(1)._2), name => ctx.bindLocal(name, sides(name)))
    val cplan = ctx.compilePlan(Seq(root.hop)).ops.collect { case PFused(c) if c.tpe == RowTpl => c } match {
      case Seq(c) => c
      case cs     => fail(s"expected one Row operator, got $cs")
    }
    assert(cplan.variant == variant, cplan)
    val op = Codegen.compile(cplan)
    val results = formats.map { case (name, x) =>
      name -> op.execute(cplan.inputs.map {
        case l: LeafHop if l.leafName == "X" => x
        case l: LeafHop                      => sides(l.leafName)
        case l: LitHop                       => MatrixBlock.dense(1, 1, Array(l.value))
        case h                               => fail(s"unexpected operator input $h")
      })
    }
    val (_, ref) = results.head
    results.tail.foreach { case (name, got) =>
      assert(got.rows == ref.rows && got.cols == ref.cols, s"$name: ${got.rows}x${got.cols}")
      val d = MatrixBlock.maxAbsDiff(got, ref)
      assert(d <= 1e-12, s"$name differs from dense by $d")
    }
    TestLA.modesAgree(Seq(BaseMode, GenMode(CostBased))) { implicit c =>
      Seq(dag(c.bindLocal("X", formats(1)._2), name => c.bindLocal(name, sides(name))))
    }
  }
}
