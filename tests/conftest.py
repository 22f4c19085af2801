import sys
from pathlib import Path

from hypothesis import settings

# Make the shared test oracles importable from every test module.
sys.path.insert(0, str(Path(__file__).resolve().parent))

# Property tests draw the same examples on every run and write no database.
settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None, max_examples=60)
settings.load_profile("derandomized")
