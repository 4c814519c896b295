/* Byte copies between OCaml strings/bytes and the block cache's
 * off-heap page arena (a char Bigarray).
 *
 * Both directions are plain memcpy under the runtime lock: a copy is
 * at most one 4 KB page, far cheaper than releasing and re-taking the
 * lock, and neither the bytes value nor the Bigarray data can move
 * while the lock is held.  The OCaml side checks every range. */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#include <string.h>

CAMLprim value d2_arena_blit_in(value src, value src_off, value arena,
                                value dst_off, value len)
{
  memcpy((char *)Caml_ba_data_val(arena) + Long_val(dst_off),
         Bytes_val(src) + Long_val(src_off), Long_val(len));
  return Val_unit;
}

CAMLprim value d2_arena_blit_out(value arena, value src_off, value dst,
                                 value dst_off, value len)
{
  memcpy(Bytes_val(dst) + Long_val(dst_off),
         (const char *)Caml_ba_data_val(arena) + Long_val(src_off),
         Long_val(len));
  return Val_unit;
}
