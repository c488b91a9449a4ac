let basis = 0x3bf29ce484222325
let[@inline] mix h v = (h lxor v) * 0x100000001b3 land max_int

let mix_range h a pos len =
  let h = ref h in
  for i = pos to pos + len - 1 do
    h := mix !h a.(i)
  done;
  !h
