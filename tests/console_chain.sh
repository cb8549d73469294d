#!/usr/bin/env bash
# End-to-end run of the `layersep` console script: generate, build, verify
# and compare artifacts.  Run it from an empty working directory, with
# `layersep` on PATH:
#
#     cd "$(mktemp -d)" && bash /path/to/repo/tests/console_chain.sh
#
# Every command must succeed; a failing step stops the run.
set -euo pipefail
fixtures="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/fixtures"

layersep gen planar_triangulation 30 --out g.txt --manifest gen.json
layersep tracks g.txt --out tl.txt --manifest tracks.json
layersep verify tracks tl.txt g.txt --manifest verify.json
layersep queues g.txt --out ql.txt --manifest queues.json
layersep verify queues ql.txt g.txt --manifest verify_queues.json
layersep decompose g.txt --root 0,1,2 --out dec.txt --manifest decompose.json
layersep verify decomposition dec.txt g.txt --manifest verify_dec.json
# the default root clique is vertex 0 alone
layersep decompose g.txt --out dec0.txt --manifest decompose0.json
layersep verify decomposition dec0.txt g.txt --manifest verify_dec0.json
# edge lines written "v u" and shuffled are normalised on reading:
# byte-identical artifacts; a repeated edge is invalid input (exit 2)
head -n 1 g.txt > g_vu.txt
tail -n +2 g.txt | awk '{print $2, $1}' | shuf --random-source=<(yes) >> g_vu.txt
layersep decompose g_vu.txt --root 0,1,2 --out dec_vu.txt
layersep decompose g_vu.txt --out dec0_vu.txt
layersep tracks g_vu.txt --out tl_vu.txt
cmp dec.txt dec_vu.txt
cmp dec0.txt dec0_vu.txt
cmp tl.txt tl_vu.txt
printf '3 2\n0 1\n1 0\n' > dup.txt
if layersep decompose dup.txt --out dup_dec.txt; then echo "repeated edge accepted"; exit 1; else test $? -eq 2; fi
layersep draw3d g.txt --out d.txt --manifest draw.json
layersep verify drawing d.txt g.txt --manifest verify_draw.json
# the shuffled "v u" edge file draws byte-identically too
layersep draw3d g_vu.txt --out d_vu.txt
cmp d.txt d_vu.txt
# max_path defaults to n = 30 here, so every square is searched
layersep nonrep g.txt --out c.txt --manifest nonrep.json
layersep verify nonrep c.txt g.txt --manifest verify_nonrep.json
layersep gen toroidal_grid 8 --rotation --out torus_rot.txt
layersep gen toroidal_grid 8 --out torus.txt
layersep decompose --embedded torus_rot.txt --out torus_dec.txt --manifest torus_decompose.json
layersep verify decomposition torus_dec.txt torus.txt --manifest torus_verify_dec.json
layersep draw3d --embedded torus_rot.txt --out torus_d.txt --manifest torus_draw.json
layersep verify drawing torus_d.txt torus.txt --manifest torus_verify_draw.json
layersep nonrep --embedded torus_rot.txt --out torus_c.txt --manifest torus_nonrep.json
layersep verify nonrep torus_c.txt torus.txt --manifest torus_verify_nonrep.json
layersep gen toroidal_grid 30 --rotation --out torus30_rot.txt
layersep gen toroidal_grid 30 --out torus30.txt
layersep decompose --embedded torus30_rot.txt --out torus30_dec.txt --manifest torus30_decompose.json
layersep verify decomposition torus30_dec.txt torus30.txt --manifest torus30_verify_dec.json
# the torus's apex set Q is nonempty, so the recursion labels depth 0
layersep tracks --embedded torus30_rot.txt --out torus30_tl.txt --manifest torus30_tracks.json
layersep verify tracks torus30_tl.txt torus30.txt --manifest torus30_verify_tracks.json
layersep queues --embedded torus30_rot.txt --out torus30_ql.txt --manifest torus30_queues.json
layersep verify queues torus30_ql.txt torus30.txt --manifest torus30_verify_queues.json
# a decomposition text written before parent fields still verifies
layersep verify decomposition "$fixtures/planar30.dec" "$fixtures/planar30.txt" --manifest old_verify_dec.json
# an explicit decomposition (not from the genus construction) verifies
layersep verify decomposition "$fixtures/chordal40.dec" "$fixtures/chordal40.txt"
# runs of 2-4 parallel edges bounding bigons, dropped in one pass
layersep decompose --embedded "$fixtures/parallel12_rot.txt" --out parallel_dec.txt --manifest parallel_decompose.json
layersep verify decomposition parallel_dec.txt "$fixtures/parallel12.txt" --manifest parallel_verify_dec.json
# an equal graph, its edge lines permuted, gives byte-identical artifacts
layersep gen random_tree 40 --seed 3 --out t.txt --manifest t_gen.json
head -n 1 t.txt > t_perm.txt
tail -n +2 t.txt | shuf --random-source=<(yes) >> t_perm.txt
if cmp -s t.txt t_perm.txt; then echo "edge lines not permuted"; exit 1; fi
for f in t t_perm; do
  layersep decompose $f.txt --out $f.dec --manifest $f.dec.json
  layersep tracks $f.txt --out $f.tl --manifest $f.tl.json
done
cmp t.dec t_perm.dec
cmp t.tl t_perm.tl
echo "console chain passed"
