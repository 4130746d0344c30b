import subprocess
import sys

import optocool


def test_all_names_resolve():
    missing = [name for name in optocool.__all__
               if not hasattr(optocool, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from optocool import *", namespace)
    assert set(optocool.__all__) <= set(namespace)


def test_import_loads_no_scipy():
    # scipy is imported by the functions that use it, not by the package
    code = ("import sys, optocool; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
