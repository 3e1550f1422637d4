import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# barrier_rl from this checkout's src/, and the benchmark's own modules
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
