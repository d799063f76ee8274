import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from streammon import check_types, parse
from streammon.compiler import bare_key
from streammon.engine import Instance
from streammon.values import UNDEFINED

# -- specification corpus ----------------------------------------------------

INTRO_SPEC = """
  input  double sensor
  input  double reference
  input  double timestamp
  output double error := sensor[2sec, 0, avg]
                    - reference[2sec, 0, avg]
  output double acc_error := error[10sec, 0, integral]
  trigger acc_error > 5
"""

PID_SPEC = """
input double temperature
input double reference
time input double timestamp

output double smooth_temp := temperature[10s,avg,0.0]
output double smooth_ref := reference[10s,avg,0.0]

output double error := smooth_temp - smooth_ref
output double acc_error := error[50s, avg, 0.0]

trigger any(acc_error > 0.016)
"""

PHI_SPEC = """
\tinput  double a
\tinput  double b
\toutput double diff = abs(a - b[-1,0])
\toutput double acc = diff[10sec,avg,0]
"""

# diff supplied with a stream clock: its rate becomes fixed
PHI_PRIME_SPEC = PHI_SPEC.replace(
    "output double diff =", "output double diff: 1Hz ="
)

# real-time offset into a variable-rate input
PHI_PPRIME_SPEC = PHI_SPEC.replace("b[-1,0]", "b[-1sec,0]")

CARS_SPEC = """
input bool offRoad
input int CID
input bool pickUp

output bool offRoadPickUp<int cid>: 0.1Hz
  invoke: CID
  extend: cid = CID
  := offRoad & pickUp

output bool suspicious<int cid>
  invoke: CID
  extend: cid = CID
  := offRoadPickUp(cid)[8h, count]?0 > 5
"""

# fleet scenario with true off-road pick-up counting, termination, and triggers
FLEET_SPEC = """
input int CID
input bool offRoad
input bool pickUp
input bool retire

output int orp<int cid>
  invoke: CID
  extend: cid = CID
  terminate: retire & (cid = CID)
  := if offRoad & pickUp then 1 else 0

output bool suspicious<int cid>
  invoke: CID
  extend: cid = CID
  terminate: retire & (cid = CID)
  := orp(cid)[8h, sum]?0 > 5

trigger any(suspicious) "suspicious vehicle"
"""


def typed(src: str):
    return check_types(parse(src))


def alpha(rt, key) -> tuple:
    """The parameter tuple, as RefMonitor keys it, of the instance of
    stream runtime rt that the engine keys by `key`: an instance of a
    one-parameter template is keyed by that parameter's value."""
    return (key,) if rt.tpl is not None and bare_key(len(rt.tpl.params)) else key


def live(rt) -> dict:
    """The live instances of stream runtime rt by their parameter tuples."""
    return {alpha(rt, key): entry for key, entry in rt.instances.items()}


def latest(entry):
    """The latest value a live instance of the engine holds, UNDEFINED before
    its first extension: an Instance's `value`, or a flat entry, which is the
    bare value itself and () before the first."""
    if isinstance(entry, Instance):
        return entry.value
    return UNDEFINED if entry == () else entry


@pytest.fixture
def pid_tspec():
    return typed(PID_SPEC)


@pytest.fixture
def fleet_tspec():
    return typed(FLEET_SPEC)
