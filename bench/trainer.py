"""External proxy trainer for the campaign-select workload (stdlib only).

Invoked by the program as ``trainer.py --manifest M --config C --valset V``.
``V`` is the generator's quality table: the hidden quality latent of
document ``doc-<i>`` stored as the i-th native double. The loss is
``2 - mean quality of the selected documents``, printed as ``{"loss": x}``.
It imports neither qselect nor numpy, so one call costs little more than
interpreter start-up.
"""

import sys
from array import array


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    quality = array("d")
    with open(args["--valset"], "rb") as fh:
        quality.frombytes(fh.read())
    total = 0.0
    count = 0
    with open(args["--manifest"], encoding="utf-8") as fh:
        for line in fh:
            doc_id = line.strip()
            if doc_id:
                total += quality[int(doc_id[4:])]
                count += 1
    if count == 0:
        sys.stderr.write("empty manifest\n")
        return 1
    sys.stdout.write('{"loss": %r}\n' % (2.0 - total / count))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
