"""The bounded-time harness tests/ceiling.py: its checks, and one case end to end."""

import ceiling

TRACEBACK = "Traceback (most recent call last):\n"


def test_every_case_checks_its_exit_code_stdout_and_stderr():
    assert len({case.name for case in ceiling.CASES}) == len(ceiling.CASES)
    for case in ceiling.CASES:
        assert case.limit <= ceiling.LIMIT, case.name
        out = case.head  # the shortest stdout the case accepts
        assert ceiling.failure(case, case.code, out, "") is None, case.name
        assert ceiling.failure(case, case.code + 1, out, "") == f"exit {case.code + 1}", case.name
        assert ceiling.failure(case, case.code, "x" + out, "") == "stdout", case.name
        too_long = out + "x" * (case.size - len(out) if case.size else 1)
        assert ceiling.failure(case, case.code, too_long, "") == "stdout", case.name
        assert ceiling.failure(case, case.code, out, TRACEBACK) == "traceback", case.name


def test_the_0xff_case_runs_end_to_end(tmp_path):
    case = next(case for case in ceiling.CASES if case.name == "classify 0xff byte")
    assert isinstance(ceiling.run(case, str(tmp_path)), float)
    assert ceiling.main([case._replace(code=0)]) == 1


def test_each_case_runs_under_the_memory_limit(tmp_path):
    argv = ["-c", "import resource; print(resource.getrlimit(resource.RLIMIT_AS)[0])"]
    case = ceiling.Case("address space", None, argv, head=f"{ceiling.MEMORY}\n")
    assert isinstance(ceiling.run(case, str(tmp_path)), float)
