import sys
import tempfile
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

# make the shared families/oracles module importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).parent))

# property tests keep no example database (database=None); Hypothesis' other
# caches go to the temp directory, so a run leaves no .hypothesis/ behind
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "mixbounds-hypothesis")
