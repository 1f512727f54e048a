# -*- coding: utf-8 -*-
"""The engine does not load the synthetic-data generator: importing
``osmlint.pipeline`` (which every worker running a lint stage does) must
leave ``osmlint.synth`` out of ``sys.modules``.  The map constants the
config needs live in ``osmlint.config``."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_pipeline_import_does_not_load_synth():
    script = ("import sys, osmlint.pipeline\n"
              "print('osmlint.synth' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_synth_reexports_the_config_constants():
    from osmlint import config, synth
    assert synth.SERBIA_SLUG == config.SERBIA_SLUG == "serbia_pbf"
    assert synth.SERBIA_MAP == config.SERBIA_MAP
    assert synth.NEIGHBORS is config.NEIGHBORS
