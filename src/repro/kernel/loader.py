"""System image construction: user program + kernel + initial state."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..isa import layout
from ..isa.program import Program
from .kernel_asm import kernel_program

if TYPE_CHECKING:  # break the kernel <-> uarch import cycle
    from ..uarch.memory import Memory


@dataclass
class SystemImage:
    """Everything needed to boot the simulated machine."""

    user: Program
    kernel: Program
    memory: "Memory"
    entry: int
    initial_sp: int

    @property
    def isa(self) -> str:
        return self.user.isa

    def pristine_word(self, addr: int) -> int | None:
        """The original (pre-fault) instruction word at *addr*, if any.

        Consults both images; used by the FPM classifier to compare a
        corrupted fetched word against what the program really held.
        """
        for program in (self.user, self.kernel):
            try:
                return program.word_at(addr)
            except KeyError:
                continue
        return None


def build_system_image(user: Program) -> SystemImage:
    """Load *user* and the matching kernel into a fresh memory."""
    from ..uarch.memory import Memory

    kernel = kernel_program(user.isa)
    memory = Memory()
    memory.load_image(user.sections)
    memory.load_image(kernel.sections)
    return SystemImage(user=user, kernel=kernel, memory=memory,
                       entry=user.entry, initial_sp=layout.USER_STACK_TOP)
