"""bmp-display: GPU device control via ioctl (Section VIII-E, Figure 16).

The GPU opens ``/dev/fb0``, issues a series of ioctls to query and set
the framebuffer mode, ``mmap``s the pixel memory, then blits a
previously-mmaped raster image onto the screen, one row per work-item.  "While not a critical GPGPU application, this ioctl
example demonstrates the generality and flexibility of OS interfaces
implemented by GENESYS."

The image format is a minimal BMP-like container: a 12-byte header
(magic, width, height) followed by rows of 32-bit pixels.
"""

from __future__ import annotations

import struct
from typing import Generator, Tuple

import numpy as np

from repro.core.invocation import Granularity, Ordering, WaitMode
from repro.gpu.ops import Do, MemRead, MemWrite, Sleep
from repro.oskernel.devices import (
    FBIOGET_VSCREENINFO,
    FBIOPAN_DISPLAY,
    FBIOPUT_VSCREENINFO,
    VarScreenInfo,
)
from repro.oskernel.fs import O_RDONLY
from repro.system import System
from repro.workloads.base import WorkloadResult

MAGIC = b"BMPR"
HEADER_BYTES = 12


def make_test_image(width: int, height: int) -> Tuple[bytes, np.ndarray]:
    """A deterministic gradient raster; returns (file bytes, pixel array)."""
    ys, xs = np.mgrid[0:height, 0:width]
    pixels = (
        ((xs * 255 // max(1, width - 1)) << 16)
        | ((ys * 255 // max(1, height - 1)) << 8)
        | ((xs + ys) % 256)
    ).astype(np.uint32)
    header = MAGIC + struct.pack("<II", width, height)
    return header + pixels.tobytes(), pixels


class BmpDisplayWorkload:
    def __init__(self, system: System, width: int = 64, height: int = 64):
        self.system = system
        self.width = width
        self.height = height
        data, self.pixels = make_test_image(width, height)
        self.image_path = "/data/image.bmpr"
        system.kernel.fs.create_file(self.image_path, data)

    def run(self) -> WorkloadResult:
        system = self.system
        fb_dev = system.kernel.framebuffer
        width, height = self.width, self.height
        image_path = self.image_path
        row_bytes = width * 4
        start = system.now
        kernel_opts = dict(
            granularity=Granularity.KERNEL, ordering=Ordering.RELAXED,
            wait=WaitMode.POLL,
        )

        def kern(ctx) -> Generator:
            shared = ctx.kernel.shared
            if ctx.is_kernel_leader:
                # Kernel-granularity device setup (Table I: bmp-display
                # invokes ioctl/mmap once per kernel).
                fb = yield from ctx.sys.open("/dev/fb0", **kernel_opts)
                var = yield from ctx.sys.ioctl(fb, FBIOGET_VSCREENINFO, **kernel_opts)
                if (var.xres, var.yres) != (width, height):
                    new_mode = VarScreenInfo(width, height, 32)
                    ret = yield from ctx.sys.ioctl(
                        fb, FBIOPUT_VSCREENINFO, new_mode, **kernel_opts
                    )
                    assert ret == 0
                mapping = yield from ctx.sys.mmap(
                    width * height * 4, fb, 0, **kernel_opts
                )
                img = yield from ctx.sys.open(image_path, O_RDONLY, **kernel_opts)
                img_bytes = HEADER_BYTES + width * height * 4
                img_map = yield from ctx.sys.mmap(img_bytes, img, 0, **kernel_opts)
                shared["fb"] = fb
                shared["img"] = img
                shared["img_map"] = img_map
                shared["mapping"] = mapping
                shared["ready"] = True
            else:
                # Wait for device setup (kernel-scope flag; no global
                # barrier exists, so poll the shared flag).
                while not shared.get("ready"):
                    yield Sleep(500.0)
            mapping = shared["mapping"]
            img_map = shared["img_map"]
            # One work-item per row: read the row through the mmaped
            # image ("fill it with data from a previously mmaped raster
            # image") and blit it into the mmaped framebuffer.
            row = ctx.global_id
            if row >= height:
                return
            yield MemRead(img_map.addr + HEADER_BYTES + row * row_bytes, row_bytes)
            yield MemWrite(mapping.addr + row * row_bytes, row_bytes)
            row_view = img_map.view()[
                HEADER_BYTES + row * row_bytes : HEADER_BYTES + (row + 1) * row_bytes
            ]
            yield Do(
                lambda: mapping.array.reshape(-1)
                .view(np.uint8)
                .__setitem__(
                    slice(row * row_bytes, (row + 1) * row_bytes),
                    np.frombuffer(bytes(row_view), dtype=np.uint8),
                )
            )

        def final(ctx) -> Generator:
            # A second tiny kernel pans the display and closes the fds.
            fb = ctx.kernel.shared["fb"]
            ret = yield from ctx.sys.ioctl(fb, FBIOPAN_DISPLAY, None, **kernel_opts)
            assert ret == 0
            yield from ctx.sys.close(ctx.kernel.shared["img"], **kernel_opts)
            yield from ctx.sys.close(fb, **kernel_opts)

        # The finishing kernel needs the blit kernel's shared dict (open
        # fds, the mapping), so both kernels use one shared holder.
        shared_holder = {}

        def kern_wrapper(ctx):
            ctx.kernel.shared = shared_holder
            return kern(ctx)

        def final_wrapper(ctx):
            ctx.kernel.shared = shared_holder
            return final(ctx)

        def main2() -> Generator:
            yield system.launch(
                kern_wrapper, global_size=height,
                workgroup_size=min(64, height), name="bmp-blit",
            )
            yield system.launch(final_wrapper, 1, 1, name="bmp-finish")

        system.run_to_completion(main2(), name="bmp-display")
        displayed = np.array_equal(fb_dev.pixels, self.pixels)
        return WorkloadResult(
            "bmp-display",
            "genesys",
            system.now - start,
            {
                "displayed_correctly": bool(displayed),
                "mode": (fb_dev.var.xres, fb_dev.var.yres),
                "ioctls": fb_dev.ioctl_count,
                "pans": fb_dev.pan_count,
            },
        )
