(* Moment-operator tests: moments of a projected Maxwellian match the
   analytic density, mean velocity, and energy. *)

module Layout = Dg_kernels.Layout
module Modal = Dg_basis.Modal
module Grid = Dg_grid.Grid
module Field = Dg_grid.Field
module Moments = Dg_moments.Moments

let check_close ?(tol = 1e-6) msg a b =
  if not (Dg_util.Float_cmp.close ~rtol:tol ~atol:tol a b) then
    Alcotest.failf "%s: %.12g <> %.12g" msg a b

let maxwellian ~n0 ~u ~vt vel =
  let vdim = Array.length vel in
  let arg = ref 0.0 in
  for k = 0 to vdim - 1 do
    let d = vel.(k) -. u.(k) in
    arg := !arg +. (d *. d)
  done;
  n0
  /. ((2.0 *. Float.pi *. vt *. vt) ** (float_of_int vdim /. 2.0))
  *. exp (-. !arg /. (2.0 *. vt *. vt))

let make_cells ~cdim ~vdim ~p cells =
  let pdim = cdim + vdim in
  let lower = Array.init pdim (fun d -> if d < cdim then 0.0 else -8.0) in
  let upper = Array.init pdim (fun d -> if d < cdim then 1.0 else 8.0) in
  let grid = Grid.make ~cells ~lower ~upper in
  Layout.make ~cdim ~vdim ~family:Modal.Serendipity ~poly_order:p ~grid

let make ?(cells_c = 2) ~cdim ~vdim ~p ~cells_v () =
  make_cells ~cdim ~vdim ~p
    (Array.init (cdim + vdim) (fun d -> if d < cdim then cells_c else cells_v))

let test_maxwellian_moments () =
  List.iter
    (fun (vdim, cells_v) ->
      let lay = make ~cdim:1 ~vdim ~p:2 ~cells_v () in
      let np = Layout.num_basis lay in
      let n0 = 2.5 and vt = 1.0 in
      let u = Array.init vdim (fun k -> 0.3 *. float_of_int (k + 1)) in
      let f = Field.create lay.Layout.grid ~ncomp:np in
      Dg_app.Vm_app.project_phase lay
        ~f:(fun ~pos:_ ~vel -> maxwellian ~n0 ~u ~vt vel)
        f;
      let mom = Moments.make lay in
      (* total mass = n0 * |config domain| *)
      check_close "total mass" n0 (Moments.total_mass mom ~f);
      (* momentum: m=1; M1_k total = n0 * u_k *)
      let nc = Layout.num_cbasis lay in
      let m1 = Field.create lay.Layout.cgrid ~ncomp:(3 * nc) in
      Moments.accumulate_current mom ~charge:1.0 ~f ~out:m1;
      for k = 0 to vdim - 1 do
        let tot =
          Moments.total_of_config_field lay ~fld:m1 ~comp_off:(k * nc)
        in
        check_close (Printf.sprintf "momentum %d" k) (n0 *. u.(k)) tot
      done;
      (* kinetic energy: (1/2) n0 (vdim vt^2 + |u|^2) *)
      let u2 = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 u in
      check_close "kinetic energy"
        (0.5 *. n0 *. ((float_of_int vdim *. vt *. vt) +. u2))
        (Moments.total_kinetic_energy mom ~mass:1.0 ~f))
    [ (1, 24); (2, 16) ]

(* Moments must be linear and the density of a spatially-varying profile
   must track the profile coefficients exactly. *)
let test_density_profile () =
  let lay = make ~cells_c:8 ~cdim:1 ~vdim:1 ~p:2 ~cells_v:24 () in
  let np = Layout.num_basis lay in
  let f = Field.create lay.Layout.grid ~ncomp:np in
  let prof x = 1.0 +. (0.4 *. sin (2.0 *. Float.pi *. x)) in
  Dg_app.Vm_app.project_phase lay
    ~f:(fun ~pos ~vel -> prof pos.(0) *. maxwellian ~n0:1.0 ~u:[| 0.0 |] ~vt:0.8 vel)
    f;
  let mom = Moments.make lay in
  let nc = Layout.num_cbasis lay in
  let dens = Field.create lay.Layout.cgrid ~ncomp:nc in
  Moments.m0 mom ~f ~out:dens;
  (* compare pointwise density against the profile at cell centers *)
  let cb = lay.Layout.cbasis in
  let block = Array.make nc 0.0 in
  Grid.iter_cells lay.Layout.cgrid (fun _ c ->
      Field.read_block dens c block;
      let ctr = Array.make 1 0.0 in
      Grid.cell_center lay.Layout.cgrid c ctr;
      check_close ~tol:1e-4 "density profile" (prof ctr.(0))
        (Modal.eval_expansion cb block [| 0.0 |]))

(* M2 of a shifted distribution obeys the parallel-axis relation used in
   collision operators: M2 = n(u^2 + vdim*vt^2) for a Maxwellian. *)
let test_m2 () =
  let lay = make ~cdim:1 ~vdim:1 ~p:2 ~cells_v:32 () in
  let np = Layout.num_basis lay in
  let f = Field.create lay.Layout.grid ~ncomp:np in
  let n0 = 1.0 and u = 1.2 and vt = 0.7 in
  Dg_app.Vm_app.project_phase lay
    ~f:(fun ~pos:_ ~vel -> maxwellian ~n0 ~u:[| u |] ~vt vel)
    f;
  let mom = Moments.make lay in
  let nc = Layout.num_cbasis lay in
  let m2 = Field.create lay.Layout.cgrid ~ncomp:nc in
  Moments.m2 mom ~f ~out:m2;
  let tot = Moments.total_of_config_field lay ~fld:m2 ~comp_off:0 in
  check_close "m2 parallel axis" (n0 *. ((u *. u) +. (vt *. vt))) tot

(* Every moment on seeded random f, pinned bit for bit: J must stay exactly
   the M1 of the discrete f (the discrete energy balance J.E = d/dt KE relies
   on it), so a faster moment pass may reorder nothing.  The digests were
   taken before the weights were tabulated.  The 1X1V grid has an odd
   velocity-cell count, so one cell is centred at v = 0.

   [f] is filled on a [Field.create] field, whose velocity ghosts separate
   the velocity blocks of neighbouring configuration cells; with [~phase]
   the moments are taken of a [Field.create_phase] copy of its interior
   instead, whose velocity blocks are contiguous.  Both must give the same
   bits, so a walk that assumes either storage fails one of them. *)
let digest xs =
  let b = Buffer.create (8 * Array.length xs) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) xs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let moment_digests ~phase lay =
  let cdim = lay.Layout.cdim and vdim = lay.Layout.vdim in
  let p = Modal.poly_order lay.Layout.basis in
  let np = Layout.num_basis lay and nc = Layout.num_cbasis lay in
  let f = Field.create lay.Layout.grid ~ncomp:np in
  let st = Random.State.make [| 20; cdim; vdim; p |] in
  let fd = Field.data f in
  Array.iteri (fun i _ -> fd.(i) <- Random.State.float st 2.0 -. 1.0) fd;
  let f =
    if phase then begin
      let g = Field.create_phase ~cdim lay.Layout.grid ~ncomp:np in
      Field.copy_stored ~src:f ~dst:g;
      g
    end
    else f
  in
  let mom = Moments.make lay in
  let config ncomp = Field.create lay.Layout.cgrid ~ncomp in
  let m0 = config nc and j = config (3 * nc) and rho = config nc
  and m2 = config nc in
  Moments.m0 mom ~f ~out:m0;
  Moments.accumulate_current mom ~charge:(-1.0) ~f ~out:j;
  Moments.accumulate_charge mom ~charge:(-0.7) ~f ~out:rho;
  Moments.m2 mom ~f ~out:m2;
  [
    ("M0", digest (Field.data m0));
    ("J", digest (Field.data j));
    ("rho", digest (Field.data rho));
    ("M2", digest (Field.data m2));
    ("total_mass", digest [| Moments.total_mass mom ~f |]);
    ("total_kinetic_energy",
      digest [| Moments.total_kinetic_energy mom ~mass:1.7 ~f |]);
  ]

let check_digests name expected got =
  List.iter2
    (fun (what, want) (_, have) ->
      if want <> have then
        Alcotest.failf "%s %s: digest %s, pinned %s" name what have want)
    expected got

let pinned_moments =
  [
    ( (2, 3, 2, 2, 4),
      [
        ("M0", "a990f13ece7f6e9c8a633116b7336730");
        ("J", "0257706920c73f1e19b69070e41ed9d5");
        ("rho", "670e64410127bb4351ae702eff711b25");
        ("M2", "6b9940f753477060023d7a264c1f7bed");
        ("total_mass", "2c37419b944a6aaba51273c46c1efce1");
        ("total_kinetic_energy", "60961f0bbe6d619be3c85949298dabcc");
      ] );
    ( (2, 2, 1, 4, 16),
      [
        ("M0", "f484357751de29d4b009db74adc61e3f");
        ("J", "71a13a4cbcd434e71f17fc3e7f93740a");
        ("rho", "f0ec032fb04098f9ff506e030eec8e8c");
        ("M2", "d8dde377a622b55d4b490b8927e3a408");
        ("total_mass", "793b202dcb357a7e76798f2d7aee086d");
        ("total_kinetic_energy", "d706f89d96f515d39e9c42aa13551aa0");
      ] );
    ( (1, 1, 2, 32, 47),
      [
        ("M0", "4dd12bd356440947ef86db647522e81f");
        ("J", "a24bfeacefcb4078dc1da4a0c66d321a");
        ("rho", "f113ff647f56d588e3646be9d81457a2");
        ("M2", "6a83297e6d2830589cf224ddc8b429e5");
        ("total_mass", "090345d2238b05487472ebb0031802a9");
        ("total_kinetic_energy", "1785c6ed9db9cc605952d7315c0b060a");
      ] );
  ]

let test_bitwise ~phase () =
  List.iter
    (fun ((cdim, vdim, p, cells_c, cells_v), expected) ->
      let lay = make ~cells_c ~cdim ~vdim ~p ~cells_v () in
      check_digests
        (Printf.sprintf "%dX%dV p=%d%s" cdim vdim p
           (if phase then " (phase field)" else ""))
        expected (moment_digests ~phase lay))
    pinned_moments

(* Thin grids, pinned on the per-cell walk: one cell in the last velocity
   dimension, so every pencil is one cell long, and one cell per
   configuration dimension, so every pencil writes the same output block;
   in both storages. *)
let test_thin () =
  List.iter
    (fun ((cdim, vdim, p, cells), expected) ->
      let lay = make_cells ~cdim ~vdim ~p cells in
      List.iter
        (fun phase ->
          check_digests
            (Printf.sprintf "%dX%dV p=%d %s%s" cdim vdim p
               (String.concat "x" (Array.to_list (Array.map string_of_int cells)))
               (if phase then " (phase field)" else ""))
            expected (moment_digests ~phase lay))
        [ false; true ])
    [
      ( (1, 2, 1, [| 3; 4; 1 |]),
        [
          ("M0", "669794b3872796c78f071002e8ef9ce7");
          ("J", "54f75150952b36cbf7cf53adf5ded7cb");
          ("rho", "69f65bb99d2d98202d8a71bc401b7502");
          ("M2", "ca30cd26d473af24690dc74cd35f3be3");
          ("total_mass", "dd4466b57221d4cf64fd2673068a263f");
          ("total_kinetic_energy", "105e9b58e6c23f72f8d8254af1d1bf59");
        ] );
      ( (2, 2, 2, [| 1; 1; 3; 5 |]),
        [
          ("M0", "587b8c911191f82725b3d999d9cfdc4f");
          ("J", "8195451121248593b544f47a8b2ced35");
          ("rho", "f9eb257803f3fa89d151eca6ab7275eb");
          ("M2", "4c33db3da6549378647f4fb59a7075e8");
          ("total_mass", "eeb4e247e93997334088eca494851140");
          ("total_kinetic_energy", "eafc62b9aa32d6333040399bc9a4d080");
        ] );
      ( (1, 1, 2, [| 1; 1 |]),
        [
          ("M0", "baf140cd067ecc320793e92b34de4023");
          ("J", "a52215ea69b4e7267a822606f1fb784e");
          ("rho", "0e53740ff3a9c8963f16a3b3ac31bbb1");
          ("M2", "bd64bc4cc9012d9b952fbe06f886238a");
          ("total_mass", "dca156d1387f230c39a5b0c863bbd8f6");
          ("total_kinetic_energy", "62c28da48ad9ac2fc53b4e168e09ec20");
        ] );
    ]

(* Prim_moments.compute's raw moments and primitives on a seeded
   realizable f (a drifting Maxwellian, every coefficient perturbed by at
   most 1e-3 of its peak), pinned on three separate moment passes. *)
let test_prim_digest () =
  let lay = make_cells ~cdim:1 ~vdim:2 ~p:2 [| 4; 6; 5 |] in
  let np = Layout.num_basis lay in
  let f = Field.create_phase ~cdim:1 lay.Layout.grid ~ncomp:np in
  Dg_app.Vm_app.project_phase lay
    ~f:(fun ~pos ~vel ->
      maxwellian
        ~n0:(1.0 +. (0.3 *. sin (2.0 *. Float.pi *. pos.(0))))
        ~u:[| 0.4; -0.9 |] ~vt:2.0 vel)
    f;
  let st = Random.State.make [| 21 |] in
  Grid.iter_cells lay.Layout.grid (fun _ c ->
      for k = 0 to np - 1 do
        Field.set f c k
          (Field.get f c k +. (1e-3 *. (Random.State.float st 2.0 -. 1.0)))
      done);
  let pm = Dg_collisions.Prim_moments.make lay in
  let prim = Dg_collisions.Prim_moments.alloc_prim pm in
  Dg_collisions.Prim_moments.compute pm ~moments:(Moments.make lay) ~f ~prim;
  if prim.nonrealizable <> 0 then
    Alcotest.failf "%d non-realizable cells" prim.nonrealizable;
  check_digests "Prim_moments.compute"
    [
      ("m0", "957f5ef86f27d84af060fdbfd27a8a32");
      ("m1", "f130d233a3f90dfdaf584b89ccd2eae9");
      ("m2", "a4b9fe357c4031cd891e6e8e1e6bb0c5");
      ("u", "f31f1e71d44ef48ed0f017c4f16317f0");
      ("vth2", "ee2be0add8c411b7cfda3f2ae47bfe53");
    ]
    (List.map
       (fun (name, fld) -> (name, digest (Field.data fld)))
       [
         ("m0", prim.m0);
         ("m1", prim.m1);
         ("m2", prim.m2);
         ("u", prim.u);
         ("vth2", prim.vth2);
       ])

(* Scales whose terms the per-cell pass treated apart: a zero charge adds
   nothing at all (a -0 coefficient stays -0), and a charge that is not
   finite makes every coefficient it reaches NaN, the zero weights' terms
   included. *)
let test_odd_scales () =
  let lay = make ~cells_c:3 ~cdim:1 ~vdim:2 ~p:2 ~cells_v:4 () in
  let np = Layout.num_basis lay and nc = Layout.num_cbasis lay in
  let f = Field.create_phase ~cdim:1 lay.Layout.grid ~ncomp:np in
  let st = Random.State.make [| 22 |] in
  let fd = Field.data f in
  Array.iteri (fun i _ -> fd.(i) <- Random.State.float st 2.0 -. 1.0) fd;
  let mom = Moments.make lay in
  let block = Array.make (3 * nc) 0.0 in
  List.iter
    (fun charge ->
      let out = Field.create lay.Layout.cgrid ~ncomp:(3 * nc) in
      Field.fill out (-0.0);
      Moments.accumulate_current mom ~charge ~f ~out;
      Moments.accumulate_charge mom ~charge ~f ~out;
      Array.iter
        (fun x ->
          if Int64.bits_of_float x <> Int64.bits_of_float (-0.0) then
            Alcotest.failf "charge %g: coefficient %h, not -0" charge x)
        (Field.data out))
    [ 0.0; -0.0 ];
  List.iter
    (fun charge ->
      let out = Field.create lay.Layout.cgrid ~ncomp:(3 * nc) in
      Moments.accumulate_current mom ~charge ~f ~out;
      Grid.iter_cells lay.Layout.cgrid (fun _ c ->
          Field.read_block out c block;
          for k = 0 to (2 * nc) - 1 do
            if not (Float.is_nan block.(k)) then
              Alcotest.failf "charge %g: coefficient %d is %g, not NaN" charge
                k block.(k)
          done))
    [ Float.infinity; Float.neg_infinity; Float.nan ]

(* A warm moment pass allocates a constant amount: no per-(cell, mode)
   closure or boxed weight, so the same minor words on four times the
   cells. *)
let test_constant_alloc () =
  let words op cells_c =
    let lay = make ~cells_c ~cdim:2 ~vdim:2 ~p:1 ~cells_v:16 () in
    let f = Field.create lay.Layout.grid ~ncomp:(Layout.num_basis lay) in
    Field.fill f 0.5;
    let out =
      Field.create lay.Layout.cgrid ~ncomp:(3 * Layout.num_cbasis lay)
    in
    let mom = Moments.make lay in
    op mom ~f ~out;
    let w0 = Gc.minor_words () in
    op mom ~f ~out;
    Gc.minor_words () -. w0
  in
  List.iter
    (fun (name, op) ->
      let a = words op 4 and b = words op 8 in
      if a <> b then
        Alcotest.failf "%s: %.0f minor words on 4^2x16^2, %.0f on 8^2x16^2"
          name a b)
    [
      ("accumulate_current", Moments.accumulate_current ~charge:1.0);
      ("accumulate_charge", Moments.accumulate_charge ~charge:(-1.0));
      ("m2", Moments.m2);
      ("total_mass", fun mom ~f ~out:_ -> ignore (Moments.total_mass mom ~f));
    ]

let () =
  Alcotest.run "dg_moments"
    [
      ( "moments",
        [
          Alcotest.test_case "maxwellian moments" `Quick test_maxwellian_moments;
          Alcotest.test_case "density profile" `Quick test_density_profile;
          Alcotest.test_case "m2" `Quick test_m2;
          Alcotest.test_case "bitwise digests" `Quick (test_bitwise ~phase:false);
          Alcotest.test_case "bitwise digests, phase field" `Quick
            (test_bitwise ~phase:true);
          Alcotest.test_case "thin grids" `Quick test_thin;
          Alcotest.test_case "prim moments digest" `Quick test_prim_digest;
          Alcotest.test_case "odd scales" `Quick test_odd_scales;
          Alcotest.test_case "constant allocation" `Quick test_constant_alloc;
        ] );
    ]
