package repro
import repro.runtime.{CellExec, ExecRef, JavaBackend}
class BackendActiveSpec extends SparkSpec {
  test("Java codegen backend is active") {
    val source =
      """package repro.codegen;
        |public final class BackendProbe extends repro.runtime.CellExec {
        |  public double genexec(double a, repro.runtime.MatrixBlock[] b, int rix, int cix) { return a + 1.0; }
        |}
        |""".stripMargin
    JavaBackend.compileClass("BackendProbe", source)
    val gx = ExecRef[CellExec]("BackendProbe", source).get
    assert(gx.genexec(2.0, Array.empty, 0, 0) == 3.0)
  }
}
