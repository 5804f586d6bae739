import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchenv  # noqa: E402

benchenv.add_program_path()
