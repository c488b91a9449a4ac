let comm src dst = Cst_comm.Comm.make ~src ~dst

let uniform rng ~n ~density =
  if n < 2 then invalid_arg "Gen_wn.uniform: n < 2";
  if density < 0.0 || density > 1.0 then
    invalid_arg "Gen_wn.uniform: density out of [0,1]";
  let m = int_of_float (density *. float_of_int n /. 2.0) in
  let m = min m (n / 2) in
  if m = 0 then Cst_comm.Comm_set.empty ~n
  else begin
    (* Shuffle m opens and m closes, then rotate to the point after the
       prefix-sum minimum: the rotation is balanced (cycle lemma). *)
    let word = Array.init (2 * m) (fun i -> if i < m then 1 else -1) in
    Cst_util.Prng.shuffle rng word;
    let best_pos = ref 0 and best = ref 0 and acc = ref 0 in
    Array.iteri
      (fun i step ->
        acc := !acc + step;
        if !acc < !best then begin
          best := !acc;
          best_pos := i + 1
        end)
      word;
    let rotated = Array.init (2 * m) (fun i -> word.((i + !best_pos) mod (2 * m))) in
    (* Choose which PE positions carry tokens. *)
    let slots = Array.init n (fun i -> i) in
    Cst_util.Prng.shuffle rng slots;
    let chosen = Array.sub slots 0 (2 * m) in
    Array.sort compare chosen;
    let toks = Array.make n Cst_comm.Paren.Blank in
    Array.iteri
      (fun k pos ->
        toks.(pos) <-
          (if rotated.(k) = 1 then Cst_comm.Paren.Open else Cst_comm.Paren.Close))
      chosen;
    match Cst_comm.Paren.match_pairs toks with
    | Error e -> failwith ("Gen_wn.uniform: internal: " ^ e)
    | Ok pairs ->
        Cst_comm.Comm_set.create_exn ~n
          (List.map (fun (s, d) -> comm s d) pairs)
  end

let onion ~n ~width =
  if width < 1 || 2 * width > n then invalid_arg "Gen_wn.onion";
  let c = n / 2 in
  Cst_comm.Comm_set.create_exn ~n
    (List.init width (fun i -> comm (c - width + i) (c + width - 1 - i)))

let pairs ~n =
  if n < 2 then invalid_arg "Gen_wn.pairs";
  Cst_comm.Comm_set.create_exn ~n
    (List.init (n / 2) (fun i -> comm (2 * i) ((2 * i) + 1)))

let with_width rng ~n ~width =
  if width < 1 || 2 * width > n then
    invalid_arg "Gen_wn.with_width: width must be between 1 and n/2";
  if not (Cst_util.Bits.is_power_of_two n) then
    invalid_arg "Gen_wn.with_width: n must be a power of two";
  let c = n / 2 in
  let core =
    List.init width (fun i -> comm (c - width + i) (c + width - 1 - i))
  in
  (* Filler lives in tree-aligned blocks [c-2^{k+1}, c-2^k) and mirrored
     right-hand blocks, with 2^k >= width: such a block shares no directed
     link with the onion core, so filler of local width <= width keeps the
     total width exactly [width]. *)
  let k0 = Cst_util.Bits.ilog2 (Cst_util.Bits.ceil_pow2 width) in
  let fill_block lo size =
    if size < 2 then []
    else begin
      let depth = 1 + Cst_util.Prng.int rng (min width (size / 2)) in
      let off =
        if size > 2 * depth then
          Cst_util.Prng.int rng (size - (2 * depth) + 1)
        else 0
      in
      List.init depth (fun i ->
          comm (lo + off + i) (lo + off + (2 * depth) - 1 - i))
    end
  in
  let filler = ref [] in
  let k = ref k0 in
  while c - (1 lsl (!k + 1)) >= 0 do
    let size = 1 lsl !k in
    filler := fill_block (c - (2 * size)) size @ !filler;
    filler := fill_block (c + size) size @ !filler;
    incr k
  done;
  let set = Cst_comm.Comm_set.create_exn ~n (core @ !filler) in
  assert (Cst_comm.Width.width ~leaves:n set = width);
  set

let translate ~by set =
  let n = Cst_comm.Comm_set.n set in
  let shifted =
    Array.fold_right
      (fun (c : Cst_comm.Comm.t) acc ->
        let src = c.src + by and dst = c.dst + by in
        if src < 0 || src >= n || dst < 0 || dst >= n then
          invalid_arg
            (Printf.sprintf
               "Gen_wn.translate: %d->%d shifted by %d leaves [0, %d)" c.src
               c.dst by n);
        comm src dst :: acc)
      (Cst_comm.Comm_set.comms set)
      []
  in
  Cst_comm.Comm_set.create_exn ~n shifted

let tile ~copies set =
  if copies < 1 then invalid_arg "Gen_wn.tile: copies < 1";
  let n = Cst_comm.Comm_set.n set in
  let comms = Array.to_list (Cst_comm.Comm_set.comms set) in
  Cst_comm.Comm_set.create_exn ~n:(n * copies)
    (List.concat
       (List.init copies (fun k ->
            List.map
              (fun (c : Cst_comm.Comm.t) ->
                comm (c.src + (k * n)) (c.dst + (k * n)))
              comms)))

let nested_blocks rng ~n ~blocks ~depth =
  if blocks < 1 || depth < 1 then invalid_arg "Gen_wn.nested_blocks";
  let block_size = n / blocks in
  (* Each onion is centred on a boundary aligned to the next power of two
     above [depth], so the aligned subtree just left of the centre carries
     exactly [depth] crossings and the set's width equals [depth]. *)
  let align = Cst_util.Bits.ceil_pow2 depth in
  if block_size < 2 * align || block_size mod align <> 0 then
    invalid_arg "Gen_wn.nested_blocks: blocks too small for the depth";
  let comms =
    List.concat
      (List.init blocks (fun b ->
           let lo = b * block_size in
           let q =
             Cst_util.Prng.int_in rng 1 ((block_size / align) - 1)
           in
           let centre = lo + (q * align) in
           List.init depth (fun i ->
               comm (centre - depth + i) (centre + depth - 1 - i))))
  in
  Cst_comm.Comm_set.create_exn ~n comms
