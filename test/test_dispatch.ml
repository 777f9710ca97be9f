(* The dispatched solver (generated unrolled kernels) must agree with the
   interpreted sparse solver on the full right-hand side for EVERY standard
   configuration, with and without EM fields; configurations the registry
   does not hold must run interpreted transparently; and one solver must be
   re-entrant: repeated and concurrent sweeps give identical answers. *)

module Layout = Dg_kernels.Layout
module Modal = Dg_basis.Modal
module Grid = Dg_grid.Grid
module Field = Dg_grid.Field
module Solver = Dg_vlasov.Solver
module Gen = Dg_genkernels.Kernels
module Codegen = Dg_codegen.Codegen

(* Phase-space fields as the app builds them: no velocity ghosts, so a
   sweep that reads one raises when VMDG_BOUNDS_CHECK=1. *)
let phase_field (lay : Layout.t) ~ncomp =
  Field.create_phase ~cdim:lay.Layout.cdim lay.Layout.grid ~ncomp

let make_layout ?cells ~family ~p ~cdim ~vdim () =
  let pdim = cdim + vdim in
  let cells =
    match cells with Some c -> c | None -> Array.make pdim 3
  in
  let lower = Array.init pdim (fun d -> if d < cdim then 0.0 else -2.0) in
  let upper = Array.init pdim (fun d -> if d < cdim then 1.0 else 2.0) in
  Layout.make ~cdim ~vdim ~family ~poly_order:p
    ~grid:(Grid.make ~cells ~lower ~upper)

let phase_bcs (lay : Layout.t) =
  Array.init lay.Layout.pdim (fun d ->
      if d < lay.Layout.cdim then (Field.Periodic, Field.Periodic)
      else (Field.Zero, Field.Zero))

let random_f ?(seed = 42) (lay : Layout.t) =
  let np = Layout.num_basis lay in
  let rng = Random.State.make [| seed |] in
  let f = phase_field lay ~ncomp:np in
  Grid.iter_cells lay.Layout.grid (fun _ c ->
      for k = 0 to np - 1 do
        Field.set f c k (Random.State.float rng 2.0 -. 1.0)
      done);
  Field.sync_ghosts f (phase_bcs lay);
  f

let random_em ?(seed = 7) (lay : Layout.t) =
  let nc = Layout.num_cbasis lay in
  let rng = Random.State.make [| seed |] in
  let em = Field.create lay.Layout.cgrid ~ncomp:(8 * nc) in
  Grid.iter_cells lay.Layout.cgrid (fun _ c ->
      for k = 0 to (6 * nc) - 1 do
        Field.set em c k (Random.State.float rng 2.0 -. 1.0)
      done);
  Field.sync_ghosts em
    (Array.make lay.Layout.cdim (Field.Periodic, Field.Periodic));
  em

let check_fields ~rtol msg a b =
  let ga = Field.grid a in
  let np = Field.ncomp a in
  Grid.iter_cells ga (fun _ c ->
      for k = 0 to np - 1 do
        let va = Field.get a c k and vb = Field.get b c k in
        if not (Dg_util.Float_cmp.close ~rtol ~atol:rtol va vb) then
          Alcotest.failf "%s: coeff %d: %.17g <> %.17g" msg k va vb
      done)

(* Dispatched rhs == interpreted rhs, streaming-only and with EM. *)
let check_config ~family ~p ~cdim ~vdim =
  let lay = make_layout ~family ~p ~cdim ~vdim () in
  let np = Layout.num_basis lay in
  let tag =
    Printf.sprintf "%dx%dv p=%d %s" cdim vdim p (Modal.family_name family)
  in
  List.iter
    (fun flux ->
      let sd = Solver.create ~flux ~use_kernels:true ~qm:(-2.0) lay in
      let si = Solver.create ~flux ~use_kernels:false ~qm:(-2.0) lay in
      let f = random_f lay in
      let em = random_em lay in
      let out_d = phase_field lay ~ncomp:np in
      let out_i = phase_field lay ~ncomp:np in
      List.iter
        (fun em_opt ->
          Solver.rhs sd ~f ~em:em_opt ~out:out_d;
          Solver.rhs si ~f ~em:em_opt ~out:out_i;
          check_fields ~rtol:1e-12
            (Printf.sprintf "%s em=%b" tag (em_opt <> None))
            out_d out_i)
        [ None; Some em ])
    [ Solver.Upwind; Solver.Central ]

let test_all_registry_configs () =
  List.iter
    (fun (family, p, cdim, vdim) -> check_config ~family ~p ~cdim ~vdim)
    Codegen.standard_configs

(* Every generated kernel pinned bit for bit: one seeded upwind rhs per
   standard configuration, over random f with random E and B, so every
   kernel of every bundle (streaming and generic volume, restrictions,
   face triple, lifts) reaches the digest.  Rtol-level agreement with the
   interpreted path (above) cannot see a reordered sum; these can.  The
   digests were taken from the OCaml kernels, before the C ones, built
   with ocamlopt's default register allocator: built with -linscan, the
   2X3V p=1 Serendipity acceleration volume kernels computed a few rows
   differently from their own source, in the last bits (digest
   9307a3198cf218ff181c998ff490ff5f); C at any -O level and the
   default-allocator OCaml agree on 4a303a66. *)
let field_digest (lay : Layout.t) out =
  let b = Buffer.create 4096 in
  Grid.iter_cells lay.Layout.grid (fun _ c ->
      for k = 0 to Field.ncomp out - 1 do
        Buffer.add_int64_le b (Int64.bits_of_float (Field.get out c k))
      done);
  Digest.to_hex (Digest.string (Buffer.contents b))

let rhs_digest ?(flux = Solver.Upwind) ?(em = true) ?cells ~family ~p ~cdim
    ~vdim () =
  let lay = make_layout ?cells ~family ~p ~cdim ~vdim () in
  let s = Solver.create ~flux ~use_kernels:true ~qm:(-2.0) lay in
  let f = random_f ~seed:(100 + (10 * cdim) + vdim) lay in
  let em = if em then Some (random_em ~seed:(200 + p) lay) else None in
  let out = phase_field lay ~ncomp:(Layout.num_basis lay) in
  Solver.rhs s ~f ~em ~out;
  field_digest lay out

let pinned_rhs_digests =
  [
    ("1x1v p=1 serendipity", "c64d5dbb3a1df45ae6b0973b1165483a");
    ("1x1v p=2 serendipity", "ff3f2f84e84f5d19cac6bd460db97973");
    ("1x2v p=1 serendipity", "fa82c2e9419b45870cff7efd4e1a9f33");
    ("1x2v p=2 serendipity", "84b6d15e6a6f93f54a516a9c2c65fd38");
    ("2x2v p=1 serendipity", "27803536c92920e76e5a153e56a374dd");
    ("2x2v p=2 serendipity", "2481c2caece4dc1427a1dc485a9604a8");
    ("2x3v p=1 serendipity", "4a303a66f2ef3c82ca174b4e4227d19c");
    ("2x3v p=2 serendipity", "4074befa191b8b758c7701daf6483170");
    ("3x3v p=1 serendipity", "4693e2ebf5b925cdc3171a7b5670e41d");
    ("1x1v p=1 tensor", "c64d5dbb3a1df45ae6b0973b1165483a");
    ("1x1v p=2 tensor", "568c892c437c548a02fac8a1a7d010c7");
    ("1x2v p=1 tensor", "fa82c2e9419b45870cff7efd4e1a9f33");
    ("1x2v p=2 tensor", "cf337e3cfe16d66dde98fa57cd3c0b56");
    ("2x2v p=1 tensor", "27803536c92920e76e5a153e56a374dd");
    ("2x2v p=2 tensor", "b8562f4c0dc981678c799d46f82f56fb");
  ]

(* The same rhs with the central flux: every face takes the penalty-free
   branch of the face flux (lam = 0). *)
let pinned_central_digests =
  [
    ("1x1v p=1 serendipity", "f2ddd5a17300483c4c22d0b7fa64255e");
    ("1x1v p=2 serendipity", "c24771b85ad90f618727e9b697ea3b56");
    ("1x2v p=1 serendipity", "7ef16b3e49f214c9d020a6ebbb080843");
    ("1x2v p=2 serendipity", "25d531bef529aeb91a560b0cbc6b3faf");
    ("2x2v p=1 serendipity", "d0dc68f80d9a48786fe144b46aa93df9");
    ("2x2v p=2 serendipity", "498377e32ec01e1ce9aa6ffc17482fad");
    ("2x3v p=1 serendipity", "294c1b6b963125927d44e08038ee12d7");
    ("2x3v p=2 serendipity", "70ed92c5ea7b92f7fe39ee5b79d1fc93");
    ("3x3v p=1 serendipity", "379d5ba7bbb50243f91da1d93d7b6306");
    ("1x1v p=1 tensor", "f2ddd5a17300483c4c22d0b7fa64255e");
    ("1x1v p=2 tensor", "2140d27bcb3eb2a425ee00f5fd15c98f");
    ("1x2v p=1 tensor", "7ef16b3e49f214c9d020a6ebbb080843");
    ("1x2v p=2 tensor", "1b33afe91ccee6c15877b1b3f964ae2d");
    ("2x2v p=1 tensor", "d0dc68f80d9a48786fe144b46aa93df9");
    ("2x2v p=2 tensor", "a268ef2d3957d69c38f14fc485684ee3");
  ]

let check_digests ?flux ?em ?cells pinned =
  List.iter
    (fun (family, p, cdim, vdim) ->
      let tag =
        Printf.sprintf "%dx%dv p=%d %s" cdim vdim p (Modal.family_name family)
      in
      let cells = Option.map (fun k -> k ~cdim ~vdim) cells in
      let got = rhs_digest ?flux ?em ?cells ~family ~p ~cdim ~vdim () in
      match List.assoc_opt tag pinned with
      | Some want when want = got -> ()
      | Some want -> Alcotest.failf "%s: rhs digest %s, pinned %s" tag got want
      | None -> Alcotest.failf "%s: no pinned digest (got %s)" tag got)
    Codegen.standard_configs

let test_rhs_digests () = check_digests pinned_rhs_digests

let test_central_digests () =
  check_digests ~flux:Solver.Central pinned_central_digests

(* The grids where the sweep's boundary cases meet in one cell, pinned
   with the same seeded upwind rhs.  One cell in the innermost (last
   velocity) dimension: that cell has no interior lower face there and
   takes both velocity-domain faces.  One cell in every configuration
   dimension: both of its faces lie on the ghost layer. *)
let pinned_thin_velocity_digests =
  [
    ("1x1v p=1 serendipity", "66fc8305755f650870c76c87b19037b1");
    ("1x1v p=2 serendipity", "8ef7f514f7296602d419a777150da808");
    ("1x2v p=1 serendipity", "6b40693be720f18c75ccf251b067fc22");
    ("1x2v p=2 serendipity", "342a51043f123e6023563850f018abb5");
    ("2x2v p=1 serendipity", "641e6c61a5ac7ae345224f267c20fcce");
    ("2x2v p=2 serendipity", "a3dcf8e6a4ae5ece6da0f9f164a7a865");
    ("2x3v p=1 serendipity", "2e5905f98e1cb5177d84a1aada8df3d7");
    ("2x3v p=2 serendipity", "14449a953fb55b928fb923c0074b8eff");
    ("3x3v p=1 serendipity", "f662673e084bbe2e318f5702f8d8882a");
    ("1x1v p=1 tensor", "66fc8305755f650870c76c87b19037b1");
    ("1x1v p=2 tensor", "af4d3d3f5f5317cc3460cefdf954fdba");
    ("1x2v p=1 tensor", "6b40693be720f18c75ccf251b067fc22");
    ("1x2v p=2 tensor", "54d586ed7edcdfb6032f783d985624fa");
    ("2x2v p=1 tensor", "641e6c61a5ac7ae345224f267c20fcce");
    ("2x2v p=2 tensor", "659dfc8b401c0bb09e1130c651c3ab96");
  ]

let pinned_thin_config_digests =
  [
    ("1x1v p=1 serendipity", "248269c484dff1846f574d79f9546727");
    ("1x1v p=2 serendipity", "e057538efce3e1d19a823ca049c85232");
    ("1x2v p=1 serendipity", "b0fc9ccfee3ee1ae132ed85260daafb0");
    ("1x2v p=2 serendipity", "fd8dfe8ccf4cb5f1a785a1c11e2b868d");
    ("2x2v p=1 serendipity", "45d928101e74a5a01e50b7f00bf7cfc0");
    ("2x2v p=2 serendipity", "a0d6d812befca9723f4285a7fccf3e6d");
    ("2x3v p=1 serendipity", "e35afa37b7b382c5df715b5b967e46e7");
    ("2x3v p=2 serendipity", "7d5f029c7455656adb38d38bb9796c26");
    ("3x3v p=1 serendipity", "0fcf84160ea200f9fbb5adc8712da6e5");
    ("1x1v p=1 tensor", "248269c484dff1846f574d79f9546727");
    ("1x1v p=2 tensor", "8e1437b388131b06725c5a8436bec3d6");
    ("1x2v p=1 tensor", "b0fc9ccfee3ee1ae132ed85260daafb0");
    ("1x2v p=2 tensor", "e7ec751ab74e76b100c0730dde2ff884");
    ("2x2v p=1 tensor", "45d928101e74a5a01e50b7f00bf7cfc0");
    ("2x2v p=2 tensor", "f525633556fd408920cb5c82aa1e8ad8");
  ]

let test_thin_grid_digests () =
  (* one cell in the dimensions [thin] picks, three elsewhere *)
  let cells thin ~cdim ~vdim =
    Array.init (cdim + vdim) (fun d -> if thin ~cdim ~vdim d then 1 else 3)
  in
  check_digests
    ~cells:(cells (fun ~cdim ~vdim d -> d = cdim + vdim - 1))
    pinned_thin_velocity_digests;
  check_digests
    ~cells:(cells (fun ~cdim ~vdim:_ d -> d < cdim))
    pinned_thin_config_digests

(* Pencils (the last, velocity, dimension) of 4, 5 and 9 cells, three
   cells elsewhere, pinned with the same seeded upwind rhs: where the
   sweep runs a direction four cells at a time, one batch, one batch and
   a scalar tail, and two batches and a tail.  Taken on the scalar sweep,
   before the batch walk, so they hold it to the scalar results bit for
   bit. *)
let pinned_long_pencil_digests =
  [
    ( 4,
      [
        ("1x1v p=1 serendipity", "cf70661911d3b23b924ddc1c6166e4c2");
        ("1x1v p=2 serendipity", "468d73f2fa41b27ba5e3e1976841dba6");
        ("1x2v p=1 serendipity", "6876d48d426d7a508c7731f1cd8b21d5");
        ("1x2v p=2 serendipity", "c920fce5545cc747992d2004e49cb194");
        ("2x2v p=1 serendipity", "a872a2984022975c145734cb60056e56");
        ("2x2v p=2 serendipity", "a9e0636e8ee1de99c54f69ac90204766");
        ("2x3v p=1 serendipity", "1bdc783da1052bca4ad864badb7e7222");
        ("2x3v p=2 serendipity", "00fb4a70171182900f1efcbe12d5ae5a");
        ("3x3v p=1 serendipity", "5cfe39335edb76b62d0714c0dcc2a4d8");
        ("1x1v p=1 tensor", "cf70661911d3b23b924ddc1c6166e4c2");
        ("1x1v p=2 tensor", "2019feefd9cb1d85aebdd6173bd13445");
        ("1x2v p=1 tensor", "6876d48d426d7a508c7731f1cd8b21d5");
        ("1x2v p=2 tensor", "2809b665cc6a78e39901578022f1bd48");
        ("2x2v p=1 tensor", "a872a2984022975c145734cb60056e56");
        ("2x2v p=2 tensor", "d178f5b31cccebfc7f91e664a396d259");
      ] );
    ( 5,
      [
        ("1x1v p=1 serendipity", "0e65590d9882b224b759575e0a2a8ff9");
        ("1x1v p=2 serendipity", "1bafef61e39f01b8edfada6b37110b10");
        ("1x2v p=1 serendipity", "e55f952533f5d1c800b482d730e20795");
        ("1x2v p=2 serendipity", "4662158f7861bc155490e68de13ff73c");
        ("2x2v p=1 serendipity", "2843c93e20672e2e01cef08757ab36fd");
        ("2x2v p=2 serendipity", "be40a3708859b8e31b57a0a6661f9d23");
        ("2x3v p=1 serendipity", "ed87ac6475cad28ba6b04f6bc060a8d4");
        ("2x3v p=2 serendipity", "8a1b6dff8f1ccfe5e447df066ce0f8fb");
        ("3x3v p=1 serendipity", "5ea4953b5b2c20e67a6ff7d523c3e0c0");
        ("1x1v p=1 tensor", "0e65590d9882b224b759575e0a2a8ff9");
        ("1x1v p=2 tensor", "fc6b635f30905b55270f4c7637c96e69");
        ("1x2v p=1 tensor", "e55f952533f5d1c800b482d730e20795");
        ("1x2v p=2 tensor", "2bb51290b9319db8be7bf34eac7c11c3");
        ("2x2v p=1 tensor", "2843c93e20672e2e01cef08757ab36fd");
        ("2x2v p=2 tensor", "f46f0b7bf2ce4c0fff00db83b088f52e");
      ] );
    ( 9,
      [
        ("1x1v p=1 serendipity", "1f1ae12c5f7ea20feebc0cf08598bd81");
        ("1x1v p=2 serendipity", "94c2e6b8d68d8f49d8db6ccfd8f9819a");
        ("1x2v p=1 serendipity", "776d3a8c798624cf91fe00e360dfb30d");
        ("1x2v p=2 serendipity", "125659b56b5cbcfbc39ad1527963f1cb");
        ("2x2v p=1 serendipity", "a8f15110b1b6b3ffd3c3c1b92153eb95");
        ("2x2v p=2 serendipity", "fc24e692d2ad71a371b66b16d5d3e0c6");
        ("2x3v p=1 serendipity", "1a6d64df4176efa2cae6b141bb493157");
        ("2x3v p=2 serendipity", "e7d71425b0966730aaf1c4bdf535aa55");
        ("3x3v p=1 serendipity", "cc0824462b2591aa8789769b3372bd2d");
        ("1x1v p=1 tensor", "1f1ae12c5f7ea20feebc0cf08598bd81");
        ("1x1v p=2 tensor", "00d5592ab2bee8875a9a8ae86e3c6bd1");
        ("1x2v p=1 tensor", "776d3a8c798624cf91fe00e360dfb30d");
        ("1x2v p=2 tensor", "785fb5898e3eef5e03041bc6052106a9");
        ("2x2v p=1 tensor", "a8f15110b1b6b3ffd3c3c1b92153eb95");
        ("2x2v p=2 tensor", "726aaaafbb02f91379c72ab313e9f314");
      ] );
  ]


(* On 5-cell pencils, also the central flux (every face penalty-free) and
   the field-free rhs (configuration directions only), taken the same
   way. *)
let pinned_long_pencil_central_digests =
  [
    ("1x1v p=1 serendipity", "2cc51f9f4993eb647b3cc7877a737ee6");
    ("1x1v p=2 serendipity", "43af8f5fe9cf8c3257967a3f69c7edd8");
    ("1x2v p=1 serendipity", "7e92980f0b6e4292bef688b9cec2fd31");
    ("1x2v p=2 serendipity", "0749bf7b84f51f120c72a83b11db61a8");
    ("2x2v p=1 serendipity", "ffa7b7fc298240d6a929b0d5bb6fc60c");
    ("2x2v p=2 serendipity", "59ff4f11406079bcef5f910d4d209aaa");
    ("2x3v p=1 serendipity", "0eb26d076154b12f86491685ea0b8ee7");
    ("2x3v p=2 serendipity", "430a6d506d41e7426c655d54c831997e");
    ("3x3v p=1 serendipity", "d3c220fe1742a696a3842256fe5693fc");
    ("1x1v p=1 tensor", "2cc51f9f4993eb647b3cc7877a737ee6");
    ("1x1v p=2 tensor", "a1706e63fb78bff39c6cca4d21fbd016");
    ("1x2v p=1 tensor", "7e92980f0b6e4292bef688b9cec2fd31");
    ("1x2v p=2 tensor", "375472330b39653b246e73c35d2324df");
    ("2x2v p=1 tensor", "ffa7b7fc298240d6a929b0d5bb6fc60c");
    ("2x2v p=2 tensor", "7119ec7d1eccb9e6898d73f75570bba9");
  ]

let pinned_long_pencil_no_field_digests =
  [
    ("1x1v p=1 serendipity", "76ff1ea792d137a846e8b5d3f8038897");
    ("1x1v p=2 serendipity", "064c945bca3b9e58293aa63a2225791a");
    ("1x2v p=1 serendipity", "309cfc4986492170d8801e3d1db025a2");
    ("1x2v p=2 serendipity", "397e365b01215101ad0fe39257d6c072");
    ("2x2v p=1 serendipity", "c09d2780587358fbeef65790080a2b2d");
    ("2x2v p=2 serendipity", "f370d4ef7a55debf79ea940f623833f6");
    ("2x3v p=1 serendipity", "58bc76c9e81b5d8b08ac35b6b47fc2c9");
    ("2x3v p=2 serendipity", "a0539b4444bce386e6668c1f7d3969d3");
    ("3x3v p=1 serendipity", "daa14a366f5043cd71176d30de11cd37");
    ("1x1v p=1 tensor", "76ff1ea792d137a846e8b5d3f8038897");
    ("1x1v p=2 tensor", "fe4c425b795e780ad73fb90c0663dd18");
    ("1x2v p=1 tensor", "309cfc4986492170d8801e3d1db025a2");
    ("1x2v p=2 tensor", "9393e5a6131b7ade1c2f45d30e741183");
    ("2x2v p=1 tensor", "c09d2780587358fbeef65790080a2b2d");
    ("2x2v p=2 tensor", "5a02d020800eb3777507059b7de87645");
  ]

let test_long_pencil_digests () =
  let pencil n ~cdim ~vdim =
    Array.init (cdim + vdim) (fun d -> if d = cdim + vdim - 1 then n else 3)
  in
  List.iter
    (fun (n, pinned) -> check_digests ~cells:(pencil n) pinned)
    pinned_long_pencil_digests;
  check_digests ~flux:Solver.Central ~cells:(pencil 5)
    pinned_long_pencil_central_digests;
  check_digests ~em:false ~cells:(pencil 5) pinned_long_pencil_no_field_digests

(* A warm rhs on the generated path allocates the same number of minor
   words whatever the cell count: the sweep's scratch is per call, and
   nothing is allocated per cell or per cell-direction. *)
let test_constant_alloc () =
  let words ~flux ~family ~p ~cdim ~vdim cells =
    let lay = make_layout ~cells ~family ~p ~cdim ~vdim () in
    let s = Solver.create ~flux ~qm:(-2.0) lay in
    let f = random_f lay and em = random_em lay in
    let out = phase_field lay ~ncomp:(Layout.num_basis lay) in
    Solver.rhs s ~f ~em:(Some em) ~out;
    let w0 = Gc.minor_words () in
    Solver.rhs s ~f ~em:(Some em) ~out;
    Gc.minor_words () -. w0
  in
  let grid cells =
    String.concat "x" (Array.to_list (Array.map string_of_int cells))
  in
  List.iter
    (fun (family, p, cdim, vdim, small, large) ->
      List.iter
        (fun (flux, name) ->
          let a = words ~flux ~family ~p ~cdim ~vdim small
          and b = words ~flux ~family ~p ~cdim ~vdim large in
          if a <> b then
            Alcotest.failf
              "%dx%dv p=%d %s %s rhs: %.0f minor words on %s, %.0f on %s"
              cdim vdim p (Modal.family_name family) name a (grid small) b
              (grid large))
        [ (Solver.Upwind, "upwind"); (Solver.Central, "central") ])
    [
      (Modal.Serendipity, 1, 2, 2, [| 4; 4; 8; 8 |], [| 4; 4; 16; 16 |]);
      (Modal.Serendipity, 2, 1, 1, [| 16; 24 |], [| 32; 48 |]);
    ]

(* solver.ml's promise that block-local fields reuse the solver: the rhs
   of each block of a configuration-split field, after the halo exchange,
   is the global rhs on that block.  The block grids' extents are rebuilt
   from the global cell width, so their dx may differ in the last bits:
   agreement is to a few ulps of max|out|. *)
let test_decomp_blocks () =
  let module Decomp = Dg_par.Decomp in
  List.iter
    (fun (family, p, cdim, vdim, cells, blocks_per_dim) ->
      let lay = make_layout ~cells ~family ~p ~cdim ~vdim () in
      let np = Layout.num_basis lay and nc = Layout.num_cbasis lay in
      let s = Solver.create ~qm:(-2.0) lay in
      let f = random_f lay and em = random_em lay in
      let out = phase_field lay ~ncomp:np in
      Solver.rhs s ~f ~em:(Some em) ~out;
      let maxabs = ref 0.0 in
      Grid.iter_cells lay.Layout.grid (fun _ c ->
          for k = 0 to np - 1 do
            maxabs := Float.max !maxabs (Float.abs (Field.get out c k))
          done);
      let tol = 4.0 *. epsilon_float *. !maxabs in
      let d =
        Decomp.make ~global:lay.Layout.grid ~cdim ~blocks_per_dim ~ncomp:np
      in
      Decomp.scatter d ~src:f;
      ignore (Decomp.exchange_halos d);
      Array.iter
        (fun (b : Decomp.block) ->
          let global lc =
            Array.mapi
              (fun i v -> if i < cdim then v + b.Decomp.offset.(i) else v)
              lc
          in
          let cg = Grid.prefix b.Decomp.local_grid cdim in
          let emb = Field.create cg ~ncomp:(8 * nc) in
          Grid.iter_cells cg (fun _ lc ->
              for k = 0 to (8 * nc) - 1 do
                Field.set emb lc k (Field.get em (global lc) k)
              done);
          let outb = Field.create_phase ~cdim b.Decomp.local_grid ~ncomp:np in
          Solver.rhs s ~f:b.Decomp.field ~em:(Some emb) ~out:outb;
          Grid.iter_cells b.Decomp.local_grid (fun _ lc ->
              let gc = global lc in
              for k = 0 to np - 1 do
                let got = Field.get outb lc k and want = Field.get out gc k in
                if Float.abs (got -. want) > tol then
                  Alcotest.failf
                    "%dx%dv p=%d block %d coeff %d: %.17g, global %.17g \
                     (tol %.3g)"
                    cdim vdim p b.Decomp.id k got want tol
              done))
        d.Decomp.blocks)
    [
      (Modal.Serendipity, 1, 2, 2, [| 4; 4; 3; 3 |], [| 2; 2 |]);
      (Modal.Serendipity, 2, 1, 2, [| 6; 3; 4 |], [| 3 |]);
    ]

(* The Dougherty drift runs the interpreted face flux with a lower-face
   flux expansion of its own (the sweep's [face_alpha] hook, which no
   other operator uses): one seeded Lbo.rhs on 1X2V p=2 Serendipity,
   pinned bit for bit.  The distribution is positive in the cell
   average, so every cell is realizable and no floor is taken. *)
let test_lbo_digest () =
  let module Lbo = Dg_collisions.Lbo in
  let lay = make_layout ~family:Modal.Serendipity ~p:2 ~cdim:1 ~vdim:2 () in
  let np = Layout.num_basis lay in
  let rng = Random.State.make [| 57 |] in
  let f = phase_field lay ~ncomp:np in
  Grid.iter_cells lay.Layout.grid (fun _ c ->
      Field.set f c 0 (1.0 +. Random.State.float rng 0.5);
      for k = 1 to np - 1 do
        Field.set f c k (Random.State.float rng 0.2 -. 0.1)
      done);
  Field.sync_ghosts f (phase_bcs lay);
  let lbo = Lbo.create ~nu:0.8 lay in
  Lbo.update_prim lbo ~f;
  Alcotest.(check int) "every cell realizable" 0 (Lbo.nonrealizable_cells lbo);
  let out = phase_field lay ~ncomp:np in
  Field.fill out 0.0;
  Lbo.rhs lbo ~f ~out;
  Alcotest.(check string) "1x2v p=2 serendipity Lbo.rhs digest"
    "bdddb18a954222e2646e3d9109381c73"
    (field_digest lay out)

(* A configuration the registry does not cover must fall back to the
   interpreted path with no behavioural difference. *)
let test_fallback_config () =
  let lay = make_layout ~family:Modal.Maximal_order ~p:1 ~cdim:1 ~vdim:2 () in
  let np = Layout.num_basis lay in
  let sd = Solver.create ~use_kernels:true ~qm:1.0 lay in
  Alcotest.(check bool)
    "maximal-order has no specialized dirs" true
    (Array.for_all not (Solver.specialized_dirs sd));
  let si = Solver.create ~use_kernels:false ~qm:1.0 lay in
  let f = random_f lay and em = random_em lay in
  let out_d = phase_field lay ~ncomp:np in
  let out_i = phase_field lay ~ncomp:np in
  Solver.rhs sd ~f ~em:(Some em) ~out:out_d;
  Solver.rhs si ~f ~em:(Some em) ~out:out_i;
  (* both run the same interpreted tensors: identical, not just close *)
  check_fields ~rtol:0.0 "maximal-order fallback" out_d out_i

let test_specialized_dirs () =
  let lay = make_layout ~family:Modal.Serendipity ~p:2 ~cdim:1 ~vdim:2 () in
  let s = Solver.create ~qm:1.0 lay in
  Alcotest.(check bool)
    "1x2v p2 ser fully specialized" true
    (Array.for_all Fun.id (Solver.specialized_dirs s));
  let lay22 = make_layout ~family:Modal.Tensor ~p:2 ~cdim:2 ~vdim:2 () in
  Alcotest.(check (array bool))
    "2x2v p2 tensor fully specialized" [| true; true; true; true |]
    (Solver.specialized_dirs (Solver.create ~qm:1.0 lay22));
  Alcotest.(check (array bool))
    "use_kernels:false specializes nothing"
    [| false; false; false; false |]
    (Solver.specialized_dirs (Solver.create ~use_kernels:false ~qm:1.0 lay22))

(* Every direction of every standard configuration runs its generated
   kernel, and exactly because the registry holds a bundle for it. *)
let test_standard_configs_dispatched () =
  List.iter
    (fun (family, p, cdim, vdim) ->
      let lay = make_layout ~family ~p ~cdim ~vdim () in
      let s = Solver.create ~use_kernels:true ~qm:(-1.0) lay in
      Array.iteri
        (fun dir sp ->
          let hit =
            Gen.find ~family:(Modal.family_name family) ~poly_order:p ~cdim
              ~vdim ~dir
            <> None
          in
          if not (sp && hit) then
            Alcotest.failf
              "%dx%dv p=%d %s dir %d: specialized %b, registry hit %b; every \
               standard direction must run generated"
              cdim vdim p (Modal.family_name family) dir sp hit)
        (Solver.specialized_dirs s))
    Codegen.standard_configs

(* Generated kernels must not lose to the interpreted loops on the
   largest tensor-basis configuration, 2x2v p2 (its acceleration
   directions were the slowest unrolled kernels before the surface term
   went to face form); allow generous jitter headroom on shared CI.  The
   two solvers' samples alternate, so load from concurrently running
   suites lands on both medians alike. *)
let test_generated_never_loses () =
  let lay = make_layout ~family:Modal.Tensor ~p:2 ~cdim:2 ~vdim:2 () in
  let np = Layout.num_basis lay in
  let sg = Solver.create ~use_kernels:true ~qm:1.0 lay in
  let si = Solver.create ~use_kernels:false ~qm:1.0 lay in
  let f = random_f lay and em = random_em lay in
  let out = phase_field lay ~ncomp:np in
  let time_of s =
    let t0 = Unix.gettimeofday () in
    Solver.rhs s ~f ~em:(Some em) ~out;
    Unix.gettimeofday () -. t0
  in
  ignore (time_of si);
  ignore (time_of sg);
  (* median of 5 interleaved samples each *)
  let pairs = List.init 5 (fun _ -> let ti = time_of si in (ti, time_of sg)) in
  let median l = List.nth (List.sort compare l) 2 in
  let t_interp = median (List.map fst pairs) in
  let t_gen = median (List.map snd pairs) in
  if t_gen > 1.25 *. t_interp then
    Alcotest.failf "generated kernels lost to interpreted: %.0f us vs %.0f us"
      (t_gen *. 1e6) (t_interp *. 1e6)

(* With tracing enabled the dispatch counters must show every direction
   specialized and no interpreted cell-direction on a fully generated
   config (2x2v p2 serendipity, the paper's Fig. 5 production config). *)
let test_fallback_counters () =
  let module Obs = Dg_obs.Obs in
  Obs.enable ();
  Obs.reset ();
  let lay22 = make_layout ~family:Modal.Serendipity ~p:2 ~cdim:2 ~vdim:2 () in
  let s22 = Solver.create ~qm:1.0 lay22 in
  Alcotest.(check (float 0.0))
    "all four dirs specialized at create" 4.0
    (Obs.counter_value "dispatch.specialized_dirs");
  Alcotest.(check (float 0.0))
    "no interpreted dirs at create" 0.0
    (Obs.counter_value "dispatch.interpreted_dirs");
  Alcotest.(check bool)
    "chunked part functions reported" true
    (Obs.counter_value "kernels.chunks" > 0.0);
  Alcotest.(check bool)
    "CSE removed multiplications" true
    (Obs.counter_value "kernels.cse_saved_mults" > 0.0);
  let np = Layout.num_basis lay22 in
  let f = random_f lay22 and em = random_em lay22 in
  let out = phase_field lay22 ~ncomp:np in
  Obs.reset ();
  Solver.rhs s22 ~f ~em:(Some em) ~out;
  let ncells = float_of_int (Grid.num_cells lay22.Layout.grid) in
  Alcotest.(check (float 0.0))
    "generated cell-dirs per sweep" (4.0 *. ncells)
    (Obs.counter_value "rhs.celldirs_generated");
  Alcotest.(check (float 0.0))
    "no interpreted cell-dirs per sweep" 0.0
    (Obs.counter_value "rhs.celldirs_interpreted");
  Obs.disable ();
  Obs.reset ()

(* Repeated sweeps and interleaved max_speeds must not perturb rhs. *)
let test_workspace_reentrant () =
  let lay = make_layout ~family:Modal.Serendipity ~p:2 ~cdim:1 ~vdim:2 () in
  let np = Layout.num_basis lay in
  let s = Solver.create ~qm:(-1.0) lay in
  let f = random_f lay and em = random_em lay in
  let out1 = phase_field lay ~ncomp:np in
  let out2 = phase_field lay ~ncomp:np in
  let out3 = phase_field lay ~ncomp:np in
  Solver.rhs s ~f ~em:(Some em) ~out:out1;
  (* max_speeds between sweeps must not touch the solver *)
  ignore (Solver.max_speeds s ~em:(Some em));
  Solver.rhs s ~f ~em:(Some em) ~out:out2;
  (* a third sweep must still give the identical answer *)
  Solver.rhs s ~f ~em:(Some em) ~out:out3;
  check_fields ~rtol:0.0 "second sweep" out1 out2;
  check_fields ~rtol:0.0 "third sweep" out1 out3

(* QCheck: on random states the chunked zero-copy kernels agree with the
   interpreted path for the paper's 2x2v p2 flagship configs (serendipity
   and tensor) in every direction — random seed, family, and flux choice
   per case. *)
let qcheck_chunked_equivalence =
  let open QCheck in
  let arb = triple (int_bound 10_000) bool bool in
  let test =
    Test.make ~count:6 ~name:"2x2v p2 chunked kernels == interpreted"
      arb
      (fun (seed, tensor, upwind) ->
        let family = if tensor then Modal.Tensor else Modal.Serendipity in
        let flux = if upwind then Solver.Upwind else Solver.Central in
        let lay = make_layout ~family ~p:2 ~cdim:2 ~vdim:2 () in
        let np = Layout.num_basis lay in
        let sd = Solver.create ~flux ~use_kernels:true ~qm:(-2.0) lay in
        let si = Solver.create ~flux ~use_kernels:false ~qm:(-2.0) lay in
        let f = random_f ~seed:(seed + 1) lay in
        let em = random_em ~seed:(seed + 2) lay in
        let out_d = phase_field lay ~ncomp:np in
        let out_i = phase_field lay ~ncomp:np in
        Solver.rhs sd ~f ~em:(Some em) ~out:out_d;
        Solver.rhs si ~f ~em:(Some em) ~out:out_i;
        check_fields ~rtol:1e-12
          (Printf.sprintf "qcheck seed=%d tensor=%b upwind=%b" seed tensor
             upwind)
          out_d out_i;
        true)
  in
  QCheck_alcotest.to_alcotest test

(* The same generated kernel applied at a real field offset and on a
   copied cell block must produce bit-identical coefficients: the
   zero-copy ABI changes data movement only, never arithmetic.  Every
   kernel id of every 2X2V p=2 bundle is applied: the volume kernel of
   its kind and the five face kernels. *)
let test_zero_copy_bitwise () =
  List.iter
    (fun family ->
      let lay = make_layout ~family ~p:2 ~cdim:2 ~vdim:2 () in
      let np = Layout.num_basis lay in
      let pdim = lay.Layout.pdim in
      let f = random_f ~seed:9 lay in
      let fd = Field.data f in
      let rng = Random.State.make [| 11 |] in
      let alpha = Array.init np (fun _ -> Random.State.float rng 2.0 -. 1.0) in
      let c = Array.make pdim 1 in
      let foff = Field.offset f c in
      let fblock = Array.sub fd foff np in
      for dir = 0 to pdim - 1 do
        let b =
          match
            Gen.find
              ~family:(Modal.family_name family)
              ~poly_order:2 ~cdim:2 ~vdim:2 ~dir
          with
          | Some b -> b
          | None -> Alcotest.failf "no bundle for dir %d" dir
        in
        let out_off = Array.make (foff + np) 0.0 in
        let out_blk = Array.make np 0.0 in
        (* each kernel once on the field at [foff], once on the block *)
        let both k =
          k fd foff out_off foff;
          k fblock 0 out_blk 0
        in
        (match b.Gen.vol with
        | Gen.Stream id ->
            both (fun f foff out ooff ->
                Gen.stream id ~wv:0.3 ~dv:0.25 ~rdx2:1.7 f ~foff out ~ooff)
        | Gen.Alpha id ->
            both (fun f foff out ooff ->
                Gen.t3 id ~scale:0.9 alpha f ~foff out ~ooff));
        both (fun f foff out ooff ->
            Gen.t3 b.Gen.face ~scale:0.7 alpha f ~foff out ~ooff);
        List.iter
          (fun id ->
            both (fun f foff out ooff ->
                Gen.t2 id ~scale:(-1.3) f ~foff out ~ooff))
          [ b.Gen.restrict_lo; b.Gen.restrict_hi; b.Gen.lift_lo; b.Gen.lift_hi ];
        for k = 0 to np - 1 do
          let a = out_off.(foff + k) and bv = out_blk.(k) in
          if Int64.bits_of_float a <> Int64.bits_of_float bv then
            Alcotest.failf
              "%s dir %d coeff %d: %.17g not bit-identical to %.17g"
              (Modal.family_name family) dir k a bv
        done
      done)
    [ Modal.Serendipity; Modal.Tensor ]

(* Two concurrent sweeps over ONE solver, each with its own scratch, on the
   chunked in-place 2x2v p2 path: concurrent zero-copy writes into
   distinct output fields must not interfere. *)
let test_concurrent_sweeps () =
  let lay = make_layout ~family:Modal.Serendipity ~p:2 ~cdim:2 ~vdim:2 () in
  let np = Layout.num_basis lay in
  let s = Solver.create ~qm:(-1.0) lay in
  let em = random_em lay in
  let f1 = random_f ~seed:1 lay and f2 = random_f ~seed:2 lay in
  let ref1 = phase_field lay ~ncomp:np in
  let ref2 = phase_field lay ~ncomp:np in
  Solver.rhs s ~f:f1 ~em:(Some em) ~out:ref1;
  Solver.rhs s ~f:f2 ~em:(Some em) ~out:ref2;
  let out1 = phase_field lay ~ncomp:np in
  let out2 = phase_field lay ~ncomp:np in
  let d = Domain.spawn (fun () -> Solver.rhs s ~f:f2 ~em:(Some em) ~out:out2) in
  Solver.rhs s ~f:f1 ~em:(Some em) ~out:out1;
  Domain.join d;
  check_fields ~rtol:0.0 "concurrent sweep 1" out1 ref1;
  check_fields ~rtol:0.0 "concurrent sweep 2" out2 ref2

(* The process-wide kernel cache keys bundles by basis identity alone, so
   what it shares must really be grid-independent: two layouts of one basis
   with different cell counts and velocity bounds (a species with its own
   vbounds) build structurally equal bundles, and creating a solver on the
   second layout after the first is a cache hit. *)
let test_kernel_cache_key () =
  let module Tensors = Dg_kernels.Tensors in
  let mk ~cells ~lower ~upper =
    Layout.make ~cdim:1 ~vdim:2 ~family:Modal.Serendipity ~poly_order:2
      ~grid:(Grid.make ~cells ~lower ~upper)
  in
  let a =
    mk ~cells:[| 3; 3; 3 |] ~lower:[| 0.0; -2.0; -2.0 |]
      ~upper:[| 1.0; 2.0; 2.0 |]
  in
  let b =
    mk ~cells:[| 4; 5; 6 |] ~lower:[| -3.0; -0.05; -0.1 |]
      ~upper:[| 5.0; 0.05; 0.02 |]
  in
  for dir = 0 to a.Layout.pdim - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "dir %d: bundles equal across grids" dir)
      true
      (Tensors.make_dir a ~dir = Tensors.make_dir b ~dir)
  done;
  ignore (Solver.create ~qm:(-1.0) a);
  let hits0, misses0 = Solver.kernel_cache_stats () in
  ignore (Solver.create ~qm:(-1.0) b);
  let hits1, misses1 = Solver.kernel_cache_stats () in
  Alcotest.(check int) "second layout hits the cache" (hits0 + 1) hits1;
  Alcotest.(check int) "and builds nothing" misses0 misses1

let () =
  Alcotest.run "kernel_dispatch"
    [
      ( "dispatch",
        [
          Alcotest.test_case "dispatched rhs == interpreted (all configs)"
            `Quick test_all_registry_configs;
          Alcotest.test_case "generated rhs digests" `Quick test_rhs_digests;
          Alcotest.test_case "central-flux rhs digests" `Quick
            test_central_digests;
          Alcotest.test_case "Lbo.rhs digest" `Quick test_lbo_digest;
          Alcotest.test_case "thin-grid rhs digests" `Quick
            test_thin_grid_digests;
          Alcotest.test_case "long-pencil rhs digests" `Quick
            test_long_pencil_digests;
          Alcotest.test_case "constant allocation" `Quick test_constant_alloc;
          Alcotest.test_case "decomposition blocks reuse the solver" `Quick
            test_decomp_blocks;
          Alcotest.test_case "unsupported config falls back" `Quick
            test_fallback_config;
          Alcotest.test_case "specialized_dirs reporting" `Quick
            test_specialized_dirs;
          Alcotest.test_case "dispatch/fallback counters" `Quick
            test_fallback_counters;
          Alcotest.test_case "every standard config dispatched" `Quick
            test_standard_configs_dispatched;
          Alcotest.test_case "generated never loses to interpreted" `Slow
            test_generated_never_loses;
          qcheck_chunked_equivalence;
          Alcotest.test_case "zero-copy == block-copy bitwise" `Quick
            test_zero_copy_bitwise;
          Alcotest.test_case "workspaces are re-entrant" `Quick
            test_workspace_reentrant;
          Alcotest.test_case "concurrent sweeps on one solver" `Quick
            test_concurrent_sweeps;
          Alcotest.test_case "kernel cache shares across grids" `Quick
            test_kernel_cache_key;
        ] );
    ]
