#!/bin/sh
# Run a fixed set of qchan commands from the checkout SRC (the directory that
# holds src/ and scripts/) inside OUTDIR, and keep everything they leave:
# every output file, the exit code of each command in codes.txt, and its
# stderr, each line prefixed with the command's name, in stderr.txt.
# Paths are relative to OUTDIR, so two runs compare with diff -r:
#
#   scripts/cli_outputs.sh . /tmp/a && scripts/cli_outputs.sh . /tmp/b
#   diff -r /tmp/a /tmp/b
#
# The set covers every command: dynamics of each driven family with and
# without --bits, sweep (with and without --bits), bloch single and --batch
# (qubit-a; qubit-b at 1537 points, two blocks of 769 and 768 rows per file;
# identity; one point),
# runs that cross block boundaries (dynamics of qubit-b and ad at 4097
# samples, blocks of 1025, 1024, 1024 and 1024; sweep at 3000 points, three
# blocks of 1000; the figure script's qubit-a at 4097), sweep at 1535 points,
# the largest single block, of 1535 rows, ad at omega 40, whose p is exactly
# 1.0 from t = 0.9375 on, so that its Kraus blocks hold exact zeros, qubit-b
# over 20 blocks of dense Choi states with --bits,
# family then analyze for each family (ndim-theta0 at several n, analyzed
# with and without --tol; qutrit and ndim --n 3 with a --w file of -identity,
# whose off-diagonal entries are all -0.0), analyze of a fixed dense channel
# with n = 4 and k = 2, whose 4 x 4 output spectrum is not an X-matrix and
# takes eigvalsh, analyze of a fixed non-minimal qubit channel with k = 8,
# whose Gram spectrum keeps 3 of its 8 eigenvalues, seven refusals, and
# scripts/make_figure_data.py.
#
# usage: scripts/cli_outputs.sh SRC OUTDIR

set -u
if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUTDIR" >&2
    exit 2
fi
src=$(cd "$1" && pwd) || exit 2
mkdir -p "$2" && cd "$2" || exit 2
: > codes.txt
: > stderr.txt

# run NAME ARGS...: qchan ARGS, recorded under NAME.
run() {
    name=$1
    shift
    code=0
    PYTHONPATH="$src/src" python3 -m qchan.cli "$@" 2> stderr.tmp || code=$?
    echo "$name $code" >> codes.txt
    sed "s/^/$name: /" stderr.tmp >> stderr.txt
    rm -f stderr.tmp
}

# pair NAME ANALYZE_OPTIONS FAMILY_OPTIONS...: family, then analyze of its
# document.  ANALYZE_OPTIONS is one word list, split on blanks.
pair() {
    doc=$1
    analyze_options=$2
    shift 2
    run "family-$doc" family "$@" --out "$doc.json"
    # shellcheck disable=SC2086
    run "analyze-$doc" analyze --in "$doc.json" $analyze_options --out "$doc.report.json"
}

for family in qubit-a qubit-b ad; do
    run "dynamics-$family" dynamics --family "$family" --steps 512 --out "dynamics-$family.csv"
    run "dynamics-$family-bits" dynamics --family "$family" --steps 512 --omega 2.5 --bits \
        --out "dynamics-$family-bits.csv"
done
for family in qubit-b ad; do
    run "dynamics-$family-blocks" dynamics --family "$family" --steps 4096 \
        --out "dynamics-$family-blocks.csv"
done
run dynamics-ad-saturating dynamics --family ad --omega 40 --t-max 30 --steps 8192 \
    --out dynamics-ad-saturating.csv
run dynamics-qubit-b-long dynamics --family qubit-b --omega 3.7 --t-max 25 --steps 20000 --bits \
    --out dynamics-qubit-b-long.csv
run sweep sweep --points 300 --phi 0.4 --out sweep.csv
run sweep-blocks sweep --points 3000 --out sweep-blocks.csv
run sweep-one-block sweep --points 1535 --out sweep-one-block.csv
run sweep-bits sweep --points 57 --theta-max 1.0 --bits --out sweep-bits.csv
run bloch bloch --family qubit-b --theta 0.7 --phi 0.3 --points 200 --out bloch.csv
run bloch-batch bloch --batch --points 200 --out bloch-batch.csv
run bloch-batch-qubit-b bloch --batch --family qubit-b --phi 0.3 --points 1537 \
    --out bloch-batch-qubit-b.csv
run bloch-batch-identity bloch --batch --family identity --points 200 \
    --out bloch-batch-identity.csv
run bloch-batch-one-point bloch --batch --points 1 --out bloch-batch-one-point.csv

pair qubit-a "" --id qubit-a --theta 1.1 --phi 0.4
pair qubit-b "--bits" --id qubit-b --theta 0.3
pair ad "" --id ad --p 0.3
pair qutrit "" --id qutrit --theta 0.3 --w fourier
pair ndim "--bits" --id ndim --n 4 --theta 0.5
for n in 2 4 5 16 32; do
    pair "ndim-theta0-n$n" "" --id ndim-theta0 --n "$n"
    pair "ndim-theta0-n$n-tol" "--tol 1e-6" --id ndim-theta0 --n "$n"
done
pair ndim-fourier "" --id ndim --n 6 --theta 0.8 --w fourier
pair ndim-fourier-n32 "" --id ndim --n 32 --theta 0.5 --w fourier
pair qutrit-identity "" --id qutrit --theta 1.0
printf '[[[-1.0, -0.0], [-0.0, -0.0], [-0.0, -0.0]],
 [[-0.0, -0.0], [-1.0, -0.0], [-0.0, -0.0]],
 [[-0.0, -0.0], [-0.0, -0.0], [-1.0, -0.0]]]\n' > minus-identity.json
for theta in 0 0.5; do
    pair "qutrit-minus-identity-$theta" "" --id qutrit --theta "$theta" --w minus-identity.json
    pair "ndim-minus-identity-$theta" "" --id ndim --n 3 --theta "$theta" --w minus-identity.json
done
# Rows of K_0 then K_1 = rows 0-3 and 4-7 of three 8 x 8 Householder
# reflections times a diagonal of phases, cut to its first four columns: an
# isometry with dyadic entries, so its completeness residual is exactly 0.
printf '{"n_in": 4, "n_out": 4, "kraus": [
 [[[0.0, 0.0], [-0.375, 0.0], [-0.625, 0.0], [-0.5, 0.0]],
  [[0.0, -0.375], [0.0, 0.5625], [0.0, -0.0625], [0.0, -0.125]],
  [[0.375, 0.0], [-0.0625, 0.0], [-0.4375, 0.0], [0.125, 0.0]],
  [[0.0, -0.625], [0.0, -0.1875], [0.0, -0.3125], [0.0, 0.625]]],
 [[[-0.125, 0.0], [-0.4375, 0.0], [-0.0625, 0.0], [0.125, 0.0]],
  [[0.0, 0.0], [0.0, 0.5], [0.0, -0.5], [0.0, 0.0]],
  [[-0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.5, 0.0]],
  [[-0.25, 0.0], [-0.25, 0.0], [0.25, 0.0], [-0.25, 0.0]]]]}\n' > dense-n4-k2.json
run analyze-dense-n4-k2 analyze --in dense-n4-k2.json --out dense-n4-k2.report.json
# K_a = rows 2a and 2a + 1 of the first two columns of D H_1 H_2, for two
# 16 x 16 Householder reflections H_i of integer vectors and a diagonal D of
# phases in {1, i, -1, -i}: a qubit channel of k = 8 > n_in n_out Kraus
# operators with dyadic entries, completeness residual exactly 0, whose
# 8 x 8 Gram state has rank 3, so 5 of its 8 eigenvalues fall below the
# entropy floor.
printf '{"n_in": 2, "n_out": 2, "kraus": [
 [[[0.875, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
 [[[-0.125, 0.0], [0.0, 0.0]], [[0.0, 0.125], [0.0, 0.0]]],
 [[[0.0, 0.0], [0.0, 0.0]], [[-0.1875, 0.0], [0.0, 0.0]]],
 [[[0.1875, 0.0], [0.0, 0.0]], [[0.0625, 0.0], [0.0, 0.0]]],
 [[[0.0, -0.125], [0.0, 0.0]], [[-0.125, 0.0], [0.0, 0.0]]],
 [[[0.0, -0.1875], [0.0, 0.0]], [[0.0, 0.0625], [0.0, 0.0]]],
 [[[-0.0625, 0.0], [0.0, 0.0]], [[0.0, -0.125], [0.0, 0.0]]],
 [[[0.0625, 0.0], [0.0, 0.0]], [[0.1875, 0.0], [0.0, 0.0]]]]}\n' > nonminimal-k8.json
run analyze-nonminimal-k8 analyze --in nonminimal-k8.json --out nonminimal-k8.report.json

run refuse-tol analyze --in qubit-a.json --tol 1e-3 --out refuse-tol.report.json
run refuse-family-tol family --id ndim-theta0 --n 4 --tol 1e-6 --out refuse-family-tol.json
printf '{"n_in": 2, "n_out": 2, "kraus": 1}\n' > malformed.json
run refuse-format analyze --in malformed.json --out refuse-format.report.json
run refuse-t-max dynamics --t-max 1e-320 --out refuse-t-max.csv
printf '[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]\n' > two-by-two.json
run refuse-w-shape family --id qutrit --w two-by-two.json --out refuse-w-shape.json
printf '[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
 [[0.0, 0.0], [NaN, 0.0], [0.0, 0.0]],
 [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]\n' > nan-w.json
run refuse-nan-w family --id qutrit --w nan-w.json --out refuse-nan-w.json
run refuse-ndim-n family --id ndim --n -3 --w fourier --out refuse-ndim-n.json

code=0
PYTHONPATH="$src/src" python3 "$src/scripts/make_figure_data.py" figure_data \
    > /dev/null 2> stderr.tmp || code=$?
echo "make_figure_data $code" >> codes.txt
sed "s/^/make_figure_data: /" stderr.tmp >> stderr.txt
rm -f stderr.tmp
