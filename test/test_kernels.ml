(* The alias-free property: every coupling tensor built from factorized 1D
   Legendre tables must equal the direct symbolic integral of the discrete
   weak form, entry for entry. *)

open Dg_kernels
module Modal = Dg_basis.Modal
module Mpoly = Dg_cas.Mpoly
module Grid = Dg_grid.Grid

let check_close ?(tol = 1e-11) msg a b =
  if not (Dg_util.Float_cmp.close ~rtol:tol ~atol:tol a b) then
    Alcotest.failf "%s: %.17g <> %.17g" msg a b

let make_layout ~cdim ~vdim ~family ~p =
  let pdim = cdim + vdim in
  let cells = Array.make pdim 2 in
  let lower = Array.make pdim (-1.0) in
  let upper = Array.make pdim 1.0 in
  (* stretch velocity dims so jacobian factors are exercised *)
  for d = cdim to pdim - 1 do
    lower.(d) <- -6.0;
    upper.(d) <- 6.0
  done;
  let grid = Grid.make ~cells ~lower ~upper in
  Layout.make ~cdim ~vdim ~family ~poly_order:p ~grid

(* Dense reconstruction of a sparse 3-tensor. *)
let densify_t3 (t : Sparse.t3) ~np =
  let d = Array.init np (fun _ -> Array.make_matrix np np 0.0) in
  Array.iteri
    (fun e c -> d.(t.Sparse.li.(e)).(t.Sparse.mi.(e)).(t.Sparse.ni.(e)) <- c)
    t.Sparse.cv;
  d

let densify_t2 (t : Sparse.t2) ~np =
  let d = Array.make_matrix np np 0.0 in
  Array.iteri (fun e v -> d.(t.Sparse.ri.(e)).(t.Sparse.ci.(e)) <- v) t.Sparse.vv;
  d

(* Volume tensor vs direct symbolic integration of int w_m w_n dw_l/dxi. *)
let test_volume_vs_symbolic () =
  List.iter
    (fun (family, cdim, vdim, p) ->
      let lay = make_layout ~cdim ~vdim ~family ~p in
      let basis = lay.Layout.basis in
      let np = Modal.num_basis basis in
      let polys = Array.init np (Modal.to_mpoly basis) in
      for dir = 0 to lay.Layout.pdim - 1 do
        let support =
          if Layout.is_config_dir lay dir then
            Tensors.streaming_support lay ~dir
          else Tensors.acceleration_support lay ~vdir:dir
        in
        let vol = Tensors.volume basis ~support ~dir in
        let dense = densify_t3 vol ~np in
        Array.iter
          (fun m ->
            for n = 0 to np - 1 do
              for l = 0 to np - 1 do
                let expected =
                  Mpoly.integrate_ref
                    (Mpoly.mul polys.(m)
                       (Mpoly.mul polys.(n) (Mpoly.deriv ~i:dir polys.(l))))
                in
                check_close
                  (Printf.sprintf "vol dir=%d (l=%d,m=%d,n=%d)" dir l m n)
                  expected
                  dense.(l).(m).(n)
              done
            done)
          support
      done)
    [
      (Modal.Tensor, 1, 1, 2);
      (Modal.Serendipity, 1, 2, 2);
      (Modal.Maximal_order, 1, 1, 3);
    ]

(* Surface tensor vs direct symbolic integration of the face traces. *)
let test_surface_vs_symbolic () =
  let lay = make_layout ~cdim:1 ~vdim:2 ~family:Modal.Tensor ~p:1 in
  let basis = lay.Layout.basis in
  let np = Modal.num_basis basis in
  let polys = Array.init np (Modal.to_mpoly basis) in
  let side_val = function Tensors.Lo -> -1.0 | Tensors.Hi -> 1.0 in
  for dir = 0 to lay.Layout.pdim - 1 do
    let support =
      if Layout.is_config_dir lay dir then Tensors.streaming_support lay ~dir
      else Tensors.acceleration_support lay ~vdir:dir
    in
    List.iter
      (fun (s_l, s_n) ->
        let t = Tensors.surface basis ~support ~dir ~s_l ~s_n in
        let dense = densify_t3 t ~np in
        Array.iter
          (fun m ->
            for n = 0 to np - 1 do
              for l = 0 to np - 1 do
                let trace p s = Mpoly.subst_var ~i:dir ~v:(side_val s) p in
                let expected =
                  Mpoly.integrate_ref_skip ~skip:dir
                    (Mpoly.mul
                       (trace polys.(m) Tensors.Hi)
                       (Mpoly.mul (trace polys.(n) s_n) (trace polys.(l) s_l)))
                in
                check_close
                  (Printf.sprintf "surf dir=%d (l=%d,m=%d,n=%d)" dir l m n)
                  expected
                  dense.(l).(m).(n)
              done
            done)
          support)
      [
        (Tensors.Hi, Tensors.Hi);
        (Tensors.Hi, Tensors.Lo);
        (Tensors.Lo, Tensors.Hi);
        (Tensors.Lo, Tensors.Lo);
      ]
  done

let test_penalty_vs_symbolic () =
  let lay = make_layout ~cdim:1 ~vdim:1 ~family:Modal.Tensor ~p:2 in
  let basis = lay.Layout.basis in
  let np = Modal.num_basis basis in
  let polys = Array.init np (Modal.to_mpoly basis) in
  for dir = 0 to 1 do
    List.iter
      (fun (s_l, s_n) ->
        let t = Tensors.penalty basis ~dir ~s_l ~s_n in
        let dense = densify_t2 t ~np in
        let sv = function Tensors.Lo -> -1.0 | Tensors.Hi -> 1.0 in
        for l = 0 to np - 1 do
          for n = 0 to np - 1 do
            let expected =
              Mpoly.integrate_ref_skip ~skip:dir
                (Mpoly.mul
                   (Mpoly.subst_var ~i:dir ~v:(sv s_l) polys.(l))
                   (Mpoly.subst_var ~i:dir ~v:(sv s_n) polys.(n)))
            in
            check_close "penalty" expected dense.(l).(n)
          done
        done)
      [ (Tensors.Hi, Tensors.Hi); (Tensors.Lo, Tensors.Hi) ]
  done

(* --- the face form, exactly ---------------------------------------------- *)

module Rat = Dg_cas.Rat
module Poly1 = Dg_cas.Poly1
module Leg = Dg_cas.Legendre
module Codegen = Dg_codegen.Codegen

(* The 1D scalars over unnormalized Legendre polynomials: P_n(+1) = 1,
   P_n(-1) = (-1)^n, and the exact rational triple integral. *)
let rat_scalars =
  let trip = Hashtbl.create 64 in
  {
    Tensors.mul = Rat.mul;
    is_zero = Rat.is_zero;
    edge_at =
      (fun n s ->
        match s with
        | Tensors.Hi -> Rat.one
        | Tensors.Lo -> if n land 1 = 0 then Rat.one else Rat.of_int (-1));
    trip_at =
      (fun a b c ->
        match Hashtbl.find_opt trip (a, b, c) with
        | Some r -> r
        | None ->
            let r =
              Poly1.integrate_ref
                (Poly1.mul (Leg.legendre a)
                   (Poly1.mul (Leg.legendre b) (Leg.legendre c)))
            in
            Hashtbl.add trip (a, b, c) r;
            r);
  }

let rat_edge n s = rat_scalars.Tensors.edge_at n s
let rat_trip a b c = rat_scalars.Tensors.trip_at a b c

let add_entry tbl key r =
  let prev = Option.value ~default:Rat.zero (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (Rat.add prev r)

(* Sorted nonzero entries of an accumulated table. *)
let nonzero tbl =
  List.sort compare
    (Hashtbl.fold
       (fun k r acc -> if Rat.is_zero r then acc else (k, Rat.to_string r) :: acc)
       tbl [])

(* lift(s_l) . triple . restrict(s_n), summed in Rat. *)
let composed_surface (e : Rat.t Tensors.face_entries) ~s_l ~s_n =
  let by_row entries =
    let t = Hashtbl.create 64 in
    List.iter (fun (r, c, v) -> Hashtbl.add t r (c, v)) entries;
    t
  in
  let restrict = by_row (if s_n = Tensors.Lo then e.Tensors.r_lo else e.Tensors.r_hi) in
  let tri = Hashtbl.create 256 in
  List.iter (fun (k, m, j, v) -> Hashtbl.add tri k (m, j, v)) e.Tensors.tri;
  let out = Hashtbl.create 1024 in
  List.iter
    (fun (l, k, cl) ->
      List.iter
        (fun (m, j, ct) ->
          List.iter
            (fun (n, cr) -> add_entry out (l, m, n) (Rat.mul cl (Rat.mul ct cr)))
            (Hashtbl.find_all restrict j))
        (Hashtbl.find_all tri k))
    (if s_l = Tensors.Lo then e.Tensors.l_lo else e.Tensors.l_hi);
  nonzero out

(* lift(s_l) . restrict(s_n), summed in Rat. *)
let composed_penalty (e : Rat.t Tensors.face_entries) ~s_l ~s_n =
  let restrict = if s_n = Tensors.Lo then e.Tensors.r_lo else e.Tensors.r_hi in
  let out = Hashtbl.create 256 in
  List.iter
    (fun (l, k, cl) ->
      List.iter
        (fun (j, n, cr) -> if j = k then add_entry out (l, n) (Rat.mul cl cr))
        restrict)
    (if s_l = Tensors.Lo then e.Tensors.l_lo else e.Tensors.l_hi);
  nonzero out

(* The old four-tensor form straight from its definition, in Rat:
   T^{(s_l,s_n)}_{lmn} = edge(l_dir,s_l) edge(m_dir,+1) edge(n_dir,s_n)
                         prod_{i<>dir} int P_{m_i} P_{n_i} P_{l_i}. *)
let oracle_surface mis ~support ~dir ~s_l ~s_n =
  let np = Array.length mis and dim = Array.length mis.(0) in
  let out = Hashtbl.create 1024 in
  for l = 0 to np - 1 do
    Array.iter
      (fun m ->
        for n = 0 to np - 1 do
          let c =
            ref
              (Rat.mul (rat_edge mis.(l).(dir) s_l)
                 (Rat.mul (rat_edge mis.(m).(dir) Tensors.Hi) (rat_edge mis.(n).(dir) s_n)))
          in
          for i = 0 to dim - 1 do
            if i <> dir && not (Rat.is_zero !c) then
              c := Rat.mul !c (rat_trip mis.(m).(i) mis.(n).(i) mis.(l).(i))
          done;
          add_entry out (l, m, n) !c
        done)
      support
  done;
  nonzero out

(* P^{(s_l,s_n)}_{ln} = edge(l_dir,s_l) edge(n_dir,s_n) delta(l_perp, n_perp). *)
let oracle_penalty mis ~dir ~s_l ~s_n =
  let np = Array.length mis and dim = Array.length mis.(0) in
  let out = Hashtbl.create 256 in
  for l = 0 to np - 1 do
    for n = 0 to np - 1 do
      let same = ref true in
      for i = 0 to dim - 1 do
        if i <> dir && mis.(l).(i) <> mis.(n).(i) then same := false
      done;
      if !same then
        add_entry out (l, n)
          (Rat.mul (rat_edge mis.(l).(dir) s_l) (rat_edge mis.(n).(dir) s_n))
    done
  done;
  nonzero out

let sides = [ Tensors.Hi; Tensors.Lo ]

(* Every standard configuration and direction, over the Vlasov support
   and in velocity directions also the collisional drift support:
   restrict . triple . lift equals each of the four old surface tensors
   and lift . restrict each of the four penalty tensors, coefficient for coefficient in exact
   arithmetic over unnormalized Legendre polynomials.  The float tables
   the solver runs are the same entries times the normalization factors
   sqrt((2n+1)/2) of their own indices (restrict: the normal degree of
   the volume index; lift likewise; triple: every degree of alpha's
   index and the tangential degrees of both face indices), whose products
   give the common N_l N_m N_n of the volume-lifted form. *)
let test_face_form_exact () =
  List.iter
    (fun (family, p, cdim, vdim) ->
      let lay = make_layout ~cdim ~vdim ~family ~p in
      let basis = lay.Layout.basis in
      let np = Modal.num_basis basis in
      let mis =
        Array.init np (fun k -> Dg_util.Multi_index.to_array (Modal.index basis k))
      in
      let nrm n = Leg.norm_factor n in
      let check_form ~tag ~dir ~support (fc : Tensors.face) =
        let e = Tensors.face_entries rat_scalars basis ~support ~dir in
        List.iter
          (fun s_l ->
            List.iter
              (fun s_n ->
                let what kind =
                  Printf.sprintf "%s: %s (s_l=%s, s_n=%s)" tag kind
                    (if s_l = Tensors.Hi then "Hi" else "Lo")
                    (if s_n = Tensors.Hi then "Hi" else "Lo")
                in
                if
                  composed_surface e ~s_l ~s_n
                  <> oracle_surface mis ~support ~dir ~s_l ~s_n
                then Alcotest.failf "%s differs" (what "lift.triple.restrict");
                if composed_penalty e ~s_l ~s_n <> oracle_penalty mis ~dir ~s_l ~s_n
                then Alcotest.failf "%s differs" (what "lift.restrict"))
              sides)
          sides;
        (* the float tables: the same entries in the same order, each the
           rational value times its normalization *)
        let fmis = Array.make e.Tensors.n_face [||] in
        Array.iteri (fun l j -> fmis.(j) <- mis.(l)) e.Tensors.face_of;
        let tangential a = Array.fold_left ( *. ) 1.0 (Array.mapi (fun i d -> if i = dir then 1.0 else nrm d) a) in
        let check_t2 kind entries (t : Sparse.t2) ~norm =
          Alcotest.(check int) (tag ^ " " ^ kind ^ " nnz") (List.length entries)
            (Sparse.t2_nnz t);
          List.iteri
            (fun i (r, c, v) ->
              if t.Sparse.ri.(i) <> r || t.Sparse.ci.(i) <> c then
                Alcotest.failf "%s %s entry %d: index mismatch" tag kind i;
              check_close ~tol:1e-14 (tag ^ " " ^ kind)
                (Rat.to_float v *. norm r c) t.Sparse.vv.(i))
            entries
        in
        check_t2 "restrict_lo" e.Tensors.r_lo fc.Tensors.restrict_lo
          ~norm:(fun _ n -> nrm mis.(n).(dir));
        check_t2 "restrict_hi" e.Tensors.r_hi fc.Tensors.restrict_hi
          ~norm:(fun _ n -> nrm mis.(n).(dir));
        check_t2 "lift_lo" e.Tensors.l_lo fc.Tensors.lift_lo
          ~norm:(fun l _ -> nrm mis.(l).(dir));
        check_t2 "lift_hi" e.Tensors.l_hi fc.Tensors.lift_hi
          ~norm:(fun l _ -> nrm mis.(l).(dir));
        Alcotest.(check int) (tag ^ " triple nnz") (List.length e.Tensors.tri)
          (Sparse.t3_nnz fc.Tensors.triple);
        List.iteri
          (fun i (k, m, j, v) ->
            let t = fc.Tensors.triple in
            if t.Sparse.li.(i) <> k || t.Sparse.mi.(i) <> m || t.Sparse.ni.(i) <> j
            then Alcotest.failf "%s triple entry %d: index mismatch" tag i;
            let norm =
              Array.fold_left (fun a d -> a *. nrm d) 1.0 mis.(m)
              *. tangential fmis.(j) *. tangential fmis.(k)
            in
            check_close ~tol:1e-14 (tag ^ " triple") (Rat.to_float v *. norm)
              t.Sparse.cv.(i))
          e.Tensors.tri
      in
      for dir = 0 to lay.Layout.pdim - 1 do
        let tag =
          Printf.sprintf "%dx%dv p%d %s dir %d" cdim vdim p
            (Modal.family_name family) dir
        in
        let dk = Tensors.make_dir lay ~dir in
        check_form ~tag ~dir ~support:dk.Tensors.support dk.Tensors.face;
        (* the collisional drift support holds the linear-in-v_dir mode, so
           its triple carries the edge(m_dir, +1) fold with m_dir = 1 *)
        if dir >= cdim then begin
          let support = Tensors.drift_support lay ~vdir:(dir - cdim) in
          check_form ~tag:(tag ^ " drift") ~dir ~support
            (Tensors.face basis ~support ~dir)
        end
      done)
    Codegen.standard_configs

(* The streaming flux expansion reproduces v_d pointwise in the cell. *)
let test_streaming_alpha () =
  let lay = make_layout ~cdim:1 ~vdim:2 ~family:Modal.Serendipity ~p:2 in
  let basis = lay.Layout.basis in
  let np = Modal.num_basis basis in
  let alpha = Array.make np 0.0 in
  let dv = 0.5 in
  let s = Flux.make_stream_ctx lay ~dir:0 ~dv in
  (* the paired velocity of config dir 0 is the first velocity dim *)
  let vcenter = [| 1.5; -0.25 |] in
  Flux.streaming_alpha s ~vcenter alpha;
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 20 do
    let xi = Array.init 3 (fun _ -> Random.State.float rng 2.0 -. 1.0) in
    (* paired velocity dim for config dir 0 is phase dim 1 *)
    let v = vcenter.(0) +. (0.5 *. dv *. xi.(1)) in
    check_close "streaming alpha eval" v (Modal.eval_expansion basis alpha xi)
  done;
  check_close "max speed" 1.75 (Flux.streaming_max_speed s ~vcenter)

(* The acceleration projection reproduces q/m (E + v x B) pointwise when the
   fields are representable. *)
let test_accel_alpha () =
  let lay = make_layout ~cdim:1 ~vdim:2 ~family:Modal.Tensor ~p:2 in
  let cb = lay.Layout.cbasis in
  let nc = Layout.num_cbasis lay in
  let qm = -2.0 in
  (* E, B as linear functions of x on the reference config cell *)
  let e_fun = [| (fun x -> 1.0 +. (0.5 *. x)); (fun x -> -0.3 +. x); (fun _ -> 0.0) |] in
  let b_fun = [| (fun _ -> 0.0); (fun _ -> 0.0); (fun x -> 2.0 -. (0.25 *. x)) |] in
  let em = Array.make (6 * nc) 0.0 in
  Array.iteri
    (fun c f ->
      let coeffs = Modal.project cb (fun pt -> f pt.(0)) in
      Array.blit coeffs 0 em (c * nc) nc)
    (Array.append e_fun b_fun);
  let vcenter = [| 0.75; -1.25 |] in
  let dv = Grid.dx lay.Layout.vgrid in
  for vdir = 0 to 1 do
    let ctx = Flux.make_accel_ctx lay ~vdir ~qm in
    let np = Modal.num_basis lay.Layout.basis in
    let alpha = Array.make np 0.0 in
    Flux.accel_alpha ctx ~em ~em_off:0 ~ncbasis:nc ~vcenter alpha;
    let rng = Random.State.make [| 13 |] in
    for _ = 1 to 20 do
      let xi = Array.init 3 (fun _ -> Random.State.float rng 2.0 -. 1.0) in
      let x = xi.(0) in
      let vx = vcenter.(0) +. (0.5 *. dv.(0) *. xi.(1)) in
      let vy = vcenter.(1) +. (0.5 *. dv.(1) *. xi.(2)) in
      let bz = b_fun.(2) x in
      let expected =
        match vdir with
        | 0 -> qm *. (e_fun.(0) x +. (vy *. bz))
        | _ -> qm *. (e_fun.(1) x -. (vx *. bz))
      in
      check_close
        (Printf.sprintf "accel alpha vdir=%d" vdir)
        expected
        (Modal.eval_expansion lay.Layout.basis alpha xi)
    done;
    (* the penalty bound really bounds |alpha| *)
    let bound = Flux.accel_max_speed ctx alpha in
    for _ = 1 to 50 do
      let xi = Array.init 3 (fun _ -> Random.State.float rng 2.0 -. 1.0) in
      let v = Float.abs (Modal.eval_expansion lay.Layout.basis alpha xi) in
      if v > bound +. 1e-9 then Alcotest.failf "penalty bound violated: %g > %g" v bound
    done
  done

(* Velocity-moment tables vs quadrature. *)
let test_vspace_tables () =
  let vt = Tensors.vspace_tables 3 in
  let quad r n =
    Dg_cas.Quadrature.integrate ~dim:1 ~n:6 (fun pt ->
        (pt.(0) ** float_of_int r) *. Dg_cas.Legendre.eval_normalized n pt.(0))
  in
  for n = 0 to 3 do
    check_close "i0" (quad 0 n) vt.Tensors.i0.(n);
    check_close "i1" (quad 1 n) vt.Tensors.i1.(n);
    check_close "i2" (quad 2 n) vt.Tensors.i2.(n)
  done

(* Sparsity sanity: the 1X2V p=1 tensor-basis volume streaming tensor should
   be small (the paper's Fig. 1 kernel has ~70 multiplications). *)
let test_sparsity () =
  let lay = make_layout ~cdim:1 ~vdim:2 ~family:Modal.Tensor ~p:1 in
  let k = Tensors.make_dir lay ~dir:0 in
  let np = Modal.num_basis lay.Layout.basis in
  let dense_size = np * np * 2 in
  Alcotest.(check bool)
    "volume tensor much sparser than dense" true
    (Sparse.t3_nnz k.Tensors.vol * 4 < dense_size * 2);
  Alcotest.(check bool) "nonempty" true (Sparse.t3_nnz k.Tensors.vol > 0)

let () =
  Alcotest.run "dg_kernels"
    [
      ( "tensors",
        [
          Alcotest.test_case "volume vs symbolic" `Quick test_volume_vs_symbolic;
          Alcotest.test_case "surface vs symbolic" `Quick test_surface_vs_symbolic;
          Alcotest.test_case "penalty vs symbolic" `Quick test_penalty_vs_symbolic;
          Alcotest.test_case "sparsity" `Quick test_sparsity;
          Alcotest.test_case "face form == surface/penalty tensors (exact)"
            `Quick test_face_form_exact;
        ] );
      ( "flux",
        [
          Alcotest.test_case "streaming alpha" `Quick test_streaming_alpha;
          Alcotest.test_case "acceleration alpha" `Quick test_accel_alpha;
        ] );
      ("vspace", [ Alcotest.test_case "moment tables" `Quick test_vspace_tables ]);
    ]
