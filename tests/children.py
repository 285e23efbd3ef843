"""Run test code in a child interpreter: to patch the library without
touching the test process, to strip asserts with -O, to bound the address
space, or to read the child's own peak memory."""
import subprocess
import sys

# Holds the child to 1 GiB of address space, so code that builds what it
# should not ends in MemoryError instead of filling the machine.
_BOUND = (
    "import resource\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
)
# Prints the child's own peak resident size in KiB on Linux: VmHWM, since
# its ru_maxrss starts at the peak of the test process that spawned it.
_PEAK = (
    "print(next(line.split()[1] for line in open('/proc/self/status')\n"
    "           if line.startswith('VmHWM:')))\n"
)


def run_child(code, *argv, optimize=False, bounded=False, peak=False,
              timeout=None, check=False):
    """Run code as ``python [-O] -c code *argv`` and capture its text output.

    bounded runs it under the 1 GiB bound; peak prints the child's peak as
    the last line of its stdout, once the code has run.
    """
    code = (_BOUND if bounded else "") + code + (_PEAK if peak else "")
    return subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", code, *argv],
        capture_output=True, text=True, timeout=timeout, check=check,
    )
