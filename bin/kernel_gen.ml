(* Writes the generated kernel registry — the counterpart of Gkeyll's
   Maxima-generated C++ kernel tree (paper Fig. 1) — as three files:
   the OCaml module that names each direction's kernel ids, the scalar C
   kernels, and their 4-lane batch twins, each C file with its id-indexed
   tables and OCaml stubs.  lib/genkernels/dune
   runs it at build time (the outputs are readable afterwards under
   _build/default/lib/genkernels/) and compiles both into dg_genkernels,
   whose kernels Dg_vlasov.Sweep selects and calls on the solver hot path;
   the test suite cross-checks the kernels against the interpreted sparse
   tensors.

   Usage: kernel_gen KERNELS.ml KERNELS.c KERNELS_X4.c *)

let write path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

let () =
  match Sys.argv with
  | [| _; ml_path; c_path; c_x4_path |] ->
      let ml, c, c_x4 = Dg_codegen.Codegen.registry_sources () in
      write ml_path ml;
      write c_path c;
      write c_x4_path c_x4
  | _ ->
      prerr_endline "usage: kernel_gen KERNELS.ml KERNELS.c KERNELS_X4.c";
      exit 2
