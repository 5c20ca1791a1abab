"""Allow ``python -m repro ...`` to invoke the command-line interface."""

import gc
import sys

from repro.cli import main

if __name__ == "__main__":
    # Move the import-time heap (numpy, the repro modules) out of the
    # collector's reach, so the first full collection inside main() skips
    # it; freezing again after main() does the same for the shutdown
    # collections.  Unlike os._exit, this keeps atexit hooks, thread joins
    # and stream flushes.
    gc.freeze()
    code = main()
    gc.freeze()
    sys.exit(code)
