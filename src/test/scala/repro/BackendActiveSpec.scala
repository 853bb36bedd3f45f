package repro
import repro.runtime.{CellExec, ExecRef, JavaBackend}
class BackendActiveSpec extends SparkSpec {
  test("Java codegen backend is active") {
    val source =
      s"""package repro.codegen;
        |public final class ${JavaBackend.ClassName} extends repro.runtime.CellExec {
        |  public double genexec(double a, repro.runtime.MatrixBlock[] b, int rix, int cix) { return a + 1.0; }
        |}
        |""".stripMargin
    val gx = ExecRef[CellExec](source).get
    assert(gx.genexec(2.0, Array.empty, 0, 0) == 3.0)
  }
}
