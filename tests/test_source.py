"""Rules on the package's source text."""

import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_lines_are_at_most_100_characters():
    # The package's size is measured in lines, so a line may not grow past 100 columns instead.
    long_lines = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "evidkit", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if len(line.rstrip("\n")) > 100:
                    long_lines.append(f"{os.path.basename(path)}:{number}")
    assert long_lines == []
