"""Every ``repro`` subpackage imports on its own in a fresh interpreter.

Inside one pytest process an import cycle hides: whichever test imported
the cycle's other end first leaves it initialised.  A separate
``python -c "import repro.<pkg>"`` per subpackage is the only order that
a user who imports just that package sees.
"""

import os
import pkgutil
import subprocess
import sys

import repro


def test_every_subpackage_imports_alone():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    packages = sorted(info.name for info in pkgutil.iter_modules(repro.__path__)
                      if info.ispkg)
    assert len(packages) >= 17
    failures = {}
    for name in packages:
        result = subprocess.run(
            [sys.executable, "-c", f"import repro.{name}"],
            capture_output=True, text=True, env=env)
        if result.returncode != 0:
            failures[name] = result.stderr.strip().splitlines()[-1]
    assert failures == {}
