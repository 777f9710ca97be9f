(* Writes the generated kernel registry — the counterpart of Gkeyll's
   Maxima-generated C++ kernel tree (paper Fig. 1) — as two files:
   the C kernels with their id-indexed tables and the OCaml stubs, and the
   OCaml module that names each direction's kernel ids.  lib/genkernels/dune
   runs it at build time (the outputs are readable afterwards under
   _build/default/lib/genkernels/) and compiles both into dg_genkernels,
   whose kernels Dg_vlasov.Sweep selects and calls on the solver hot path;
   the test suite cross-checks the kernels against the interpreted sparse
   tensors.

   Usage: kernel_gen KERNELS.ml KERNELS.c *)

let write path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

let () =
  match Sys.argv with
  | [| _; ml_path; c_path |] ->
      let ml, c = Dg_codegen.Codegen.registry_sources () in
      write ml_path ml;
      write c_path c
  | _ ->
      prerr_endline "usage: kernel_gen KERNELS.ml KERNELS.c";
      exit 2
