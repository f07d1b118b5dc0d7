"""The help of every command path, byte for byte at 80 columns.

argparse writes it from the grammar table in ``pilat.cli``; the plain
reader never answers "--help", so these pin the fallback's output.
"""
import sys

import pytest

from pilat.cli import main

HELP = {
    "": """\
usage: pilat [-h]
             {enumerate,chains,antichains,complements,ortho,cardinal,hasse}
             ...

partition lattice toolkit

positional arguments:
  {enumerate,chains,antichains,complements,ortho,cardinal,hasse}
    enumerate           list a lattice or its counts
    chains              keyframe chains; verify chain files
    antichains          antichain constructions
    complements         complement census
    ortho               orthocomplementation search and witnesses
    cardinal            symbolic cardinal arithmetic
    hasse               DOT diagram of a lattice or a file of partitions

options:
  -h, --help            show this help message and exit
""",
    "enumerate": """\
usage: pilat enumerate [-h] --n N [--counts] [--output OUTPUT]

options:
  -h, --help       show this help message and exit
  --n N
  --counts         print counts only
  --output OUTPUT
""",
    "chains": """\
usage: pilat chains [-h] {keyframe,verify} ...

positional arguments:
  {keyframe,verify}
    keyframe         maximal chain through the dyadic keyframes
    verify           check a file of one literal per line

options:
  -h, --help         show this help message and exit
""",
    "chains keyframe": """\
usage: pilat chains keyframe [-h] --k K [--output OUTPUT]

options:
  -h, --help       show this help message and exit
  --k K            ground set has 2^k elements
  --output OUTPUT
""",
    "chains verify": """\
usage: pilat chains verify [-h] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
""",
    "antichains": """\
usage: pilat antichains [-h] --n N [--verify] [--output OUTPUT]
                        {doubleton,bipartition}

positional arguments:
  {doubleton,bipartition}

options:
  -h, --help            show this help message and exit
  --n N
  --verify
  --output OUTPUT
""",
    "complements": """\
usage: pilat complements [-h] {census} ...

positional arguments:
  {census}
    census    CSV census over all of Pi_n

options:
  -h, --help  show this help message and exit
""",
    "complements census": """\
usage: pilat complements census [-h] --n N [--output OUTPUT]

options:
  -h, --help       show this help message and exit
  --n N
  --output OUTPUT
""",
    "ortho": """\
usage: pilat ortho [-h] {search,witness} ...

positional arguments:
  {search,witness}
    search          exhaustive search (small n)
    witness         counting witness for n >= 5

options:
  -h, --help        show this help message and exit
""",
    "ortho search": """\
usage: pilat ortho search [-h] --n N [--exhaustive]

options:
  -h, --help    show this help message and exit
  --n N
  --exhaustive  allow the n=5 search instead of the counting witness
""",
    "ortho witness": """\
usage: pilat ortho witness [-h] --n N

options:
  -h, --help  show this help message and exit
  --n N
""",
    "cardinal": """\
usage: pilat cardinal [-h] {eval} ...

positional arguments:
  {eval}
    eval      evaluate an expression under a model

options:
  -h, --help  show this help message and exit
""",
    "cardinal eval": """\
usage: pilat cardinal eval [-h] [--model MODEL] expr

positional arguments:
  expr

options:
  -h, --help     show this help message and exit
  --model MODEL  'gch' or a JSON model file
""",
    "hasse": """\
usage: pilat hasse [-h] [--n N] [--chain CHAIN] [--antichain ANTICHAIN]
                   [--output OUTPUT]

options:
  -h, --help            show this help message and exit
  --n N
  --chain CHAIN
  --antichain ANTICHAIN
  --output OUTPUT
""",
}


@pytest.mark.parametrize("path", HELP, ids=lambda path: path or "pilat")
def test_help_of_each_command_path(capsys, monkeypatch, path):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*path.split(), "--help"]) == 0
    captured = capsys.readouterr()
    expected = HELP[path]
    if sys.version_info >= (3, 13):  # its usage keeps the top's "..." on the line of the choices
        expected = expected.replace("hasse}\n             ...", "hasse} ...")
    assert (captured.out, captured.err) == (expected, "")
